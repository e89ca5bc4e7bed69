"""Exact integer matrix routines.

Everything here is plain lists-of-lists (or tuples of tuples) over int; a
routine copies its input or only reads it. The Smith normal form returns D
and the column transform V, with U*M*V = D for some unimodular U that is not
built, as no caller reads it; the pivot rule is deterministic (smallest
absolute value, ties row-major) so outputs are reproducible.

One elimination loop gives the divisibility chain too: a diagonal position is
finished only when its pivot divides every entry of the block below and to
the right of it, so each later pivot is a multiple of it. Otherwise the
offending row is added to the pivot row, and the next column step leaves a
nonzero remainder smaller than the pivot. A remainder is always re-pivoted
on, so |pivot| falls at least every second pass, and the loop ends.
"""

from operator import index, mul


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    if not a or not b:
        return []
    k = len(b)
    if any(len(row) != k for row in a):
        raise ValueError("inner dimensions differ")
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def determinant(m):
    """Bareiss fraction-free elimination; exact for integer input."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _min_pivot(a, t, nr, nc):
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _row_sub(a, dst, src, q):
    if q:
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]


def _col_sub(a, v, dst, src, q):
    if q:
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]


def _clear_position(a, v, t, nr, nc):
    """Euclid at diagonal position t until row t and column t are clean and
    the pivot divides the block below and to the right of it."""
    while True:
        piv = _min_pivot(a, t, nr, nc)
        if piv is None:
            return False
        i, j = piv  # swap it to (t, t)
        a[t], a[i] = a[i], a[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for r in range(t + 1, nr):
            _row_sub(a, r, t, a[r][t] // p)
        if any(a[r][t] for r in range(t + 1, nr)):
            continue  # a remainder survived; it is smaller, re-pick the pivot
        for c in range(t + 1, nc):
            _col_sub(a, v, c, t, a[t][c] // p)
        if any(a[t][c] for c in range(t + 1, nc)):
            continue
        for r in range(t + 1, nr):
            if any(a[r][c] % p for c in range(t + 1, nc)):
                _row_sub(a, t, r, -1)  # row_t += row_r, then re-pivot
                break
        else:
            return True


def smith_normal_form(m):
    """D, V with U*M*V = D diagonal, d_i >= 0 and d_i | d_{i+1}.

    V is unimodular, and so is the row transform U, which is not returned.
    Total function: works for any integer matrix including rectangular and
    zero ones.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if any(len(row) != nc for row in m):
        raise ValueError("rows must have equal length")
    a = [list(map(index, row)) for row in m]
    v = identity_matrix(nc)
    k = min(nr, nc)
    for t in range(k):
        if not _clear_position(a, v, t, nr, nc):
            break
    for i in range(k):
        a[i][i] = abs(a[i][i])
    return a, v


def diagonal(m):
    return [m[i][i] for i in range(min(len(m), len(m[0]) if m else 0))]


def integer_kernel_basis(m):
    """Basis of the integer kernel of m, as a list of integer vectors.

    Columns of V at positions past the rank span ker(D), hence V maps them
    onto a (saturated) basis of ker(m).
    """
    d, v = smith_normal_form(m)
    nc = len(m[0]) if m else 0
    diag = diagonal(d)
    free = [j for j in range(nc) if j >= len(diag) or diag[j] == 0]
    cols = transpose(v)
    return [list(cols[j]) for j in free]
