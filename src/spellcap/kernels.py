"""Unit-cost Levenshtein distance, shared by character edit distance and WER."""


def levenshtein_ids(a, b) -> int:
    """Edit distance between two sequences (strings, or lists of words).

    Two-row DP: ``prev`` is row i-1 and ``left`` the cell just filled in row i.
    """
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        row = [i]
        left = i
        for y, diag, up in zip(b, prev, prev[1:]):
            best = diag if x == y else diag + 1
            if up + 1 < best:
                best = up + 1
            if left + 1 < best:
                best = left + 1
            row.append(best)
            left = best
        prev = row
    return prev[-1]
