from fractions import Fraction


class SatPolyError(Exception):
    """Base class for all library errors."""


class ParseError(SatPolyError):
    """Malformed input file or literal."""


class BoundExceeded(SatPolyError):
    """An enumeration-bounded operation was called outside its size limit."""


# Longest integer token the file parsers convert.  int() takes time
# quadratic in a token's length once the int-str limit is lifted, and no
# index, id, count or rank needs more; this was that limit's default.
MAX_INT_CHARS = 4300


def check_int_chars(tokens, lineno: int) -> None:
    """ParseError for the first token longer than MAX_INT_CHARS, before any int() sees it."""
    for tok in tokens:
        if len(tok) > MAX_INT_CHARS:
            raise ParseError(
                f"line {lineno}: integer token of {len(tok)} characters"
                f" (at most {MAX_INT_CHARS})"
            )


def parse_ints(tokens, lineno: int) -> list[int]:
    """Decimal integers of one input line; a bad or overlong token is a ParseError."""
    check_int_chars(tokens, lineno)
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {' '.join(tokens)!r}") from None


def input_lines(text: str):
    """(line number, tokens) of each non-blank line, its '#' comment removed."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


# Longest rational token the parsers read: a sign, then a numerator and a
# denominator of MAX_INT_CHARS digits each around "/" (or the two sides of
# a decimal point).  Fraction() of a longer decimal takes time quadratic in
# its length once the int-str limit is lifted: 400,000 digits take a second.
MAX_RATIONAL_CHARS = 2 * MAX_INT_CHARS + 2


def parse_rational(tok: str) -> Fraction:
    """Fraction(tok), with overlong tokens and exponent notation refused as a ParseError.

    Fraction("1e1000000") builds 10**1000000 in full, and each further
    exponent digit costs ten times more; no other syntax Fraction reads
    contains e or E.
    """
    if len(tok) > MAX_RATIONAL_CHARS:
        raise ParseError(
            f"rational token of {len(tok)} characters (at most {MAX_RATIONAL_CHARS})"
        )
    if "e" in tok or "E" in tok:
        raise ParseError(f"exponent notation is not accepted: {tok!r}")
    return Fraction(tok)
