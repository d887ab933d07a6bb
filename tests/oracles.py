"""Reference implementations the tests compare the package against.

None of these is on a route: each is the plain textbook form of what the
package computes another way, kept here so that a check never shares the
code it checks.
"""

from wheelfan.graphs import components


def dense_laplacian(nbrs):
    """The dense n x n Laplacian D - A of the neighbour lists laplacian() returns."""
    rows = []
    for i, row_nbrs in enumerate(nbrs):
        row = [0] * len(nbrs)
        row[i] = len(row_nbrs)
        for j in row_nbrs:
            row[j] = -1
        rows.append(tuple(row))
    return tuple(rows)


def dense_minor(nbrs, drop):
    """Dense minor without the rows and columns in drop, in vertex order."""
    keep = [i for i in range(len(nbrs)) if i not in drop]
    entries = dense_laplacian(nbrs)
    return [[entries[i][j] for j in keep] for i in keep]


def bareiss_det(matrix):
    """Exact determinant of a square integer matrix by textbook Bareiss.

    The matrix is copied; every intermediate entry is a minor of the input,
    so the integer divisions are exact.  A zero pivot triggers a row swap,
    and if no swap helps the matrix is singular and the answer is 0.  The
    empty matrix has determinant 1.
    """
    n = len(matrix)
    if n == 0:
        return 1
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = rows[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
        prev = pivot
    return sign * rows[n - 1][n - 1]


def cofactor_det(m):
    # textbook expansion along the first row; the independent oracle
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(sub)
    return total


def is_acyclic(g, sub):
    """True iff sub has no cycle; a repeated edge counts as one.

    Every edge of a forest joins two parts, so a forest with e edges leaves
    vertex_count - e parts and any cycle leaves more.
    """
    sub = list(sub)
    return len(components(g, sub)) == g.vertex_count - len(sub)
