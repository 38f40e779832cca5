"""Embedded reference eigenvalue table for the CLI's --expect checks.

TABLE1 holds the twenty lowest distinct eigenvalues of the alternating
2,3 space with their exact multiplicities; eigenvalues are (k pi)^2 to two
decimals.
"""

import math

# multiplicities of lambda_k = (k pi)^2, k = 0..19, for {2,3,2,3,...}
_MULTIPLICITIES_2_3 = (1, 3, 1, 8, 1, 3, 26, 3, 1, 8, 1, 3, 38, 3, 1, 8, 1, 3, 86, 3)
TABLE1 = tuple((round((k * math.pi) ** 2, 2), m) for k, m in enumerate(_MULTIPLICITIES_2_3))
