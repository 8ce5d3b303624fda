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
