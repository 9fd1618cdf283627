"""Every numerical tolerance of the package, each with the one thing it decides.

Tolerances are absolute, except the one rounding, which counts decimal
digits. Changing one changes which inputs are accepted and which findings
are reported, so the values are fixed here and nowhere else; callers that
take a ``tol`` argument default to one of these.
"""

#: probabilities: the root's is 1, each edge's lies in (0, 1], children sum to 1
PROB_TOL = 1e-12

#: Hoelder check: slack added on top of the declared constant C
HOLDER_SLACK = 1e-12

#: MDP input: kernel rows sum to 1 and stage costs stay within the bound K
KERNEL_TOL = 1e-12

#: two computations of one value agree (recursion checks), and table keys match
EQUALITY_TOL = 1e-9

#: a one-sided inequality holds (the interchange gap is nonnegative)
INEQUALITY_SLACK = 1e-12

#: default tolerance of the martingale, dynamic-relation and interchange reports
DEFAULT_TOL = 1e-9

#: lag recursion: observations, decisions and probabilities equal when rounded to this many digits
LAG_KEY_DIGITS = 9
