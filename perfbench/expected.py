"""Results recorded from axetlab at the commit that introduced the
benchmark.  They are the oracle for every later commit: an operation
whose result differs from its entry here counts as failed."""

# papersuite.run_suite(char): item name -> (status, detail)
SUITE_CHAR0 = {'abstract-closures': ('pass', '3k points for k = 1..8'),
 'axes-char0': ('pass', '6 axes under their stated laws'),
 'axes-char5': ('skip', 'characteristic 5 only'),
 'axet-X4': ('skip', 'characteristic 5 only'),
 'axets-char0': ('pass',
                 '3-point skew realizations for the rational examples'),
 'axets-char5': ('skip', 'characteristic 5 only'),
 'bracket-table': ('pass', '11 beta components'),
 'bullets-3C': ('pass', 'symbolic eigenvector bullets over Q(alpha)'),
 'bullets-3C-minus1-2': ('pass',
                         'eigenvector bullets and the 3C(-1)^x pair '
                         'algebra'),
 'bullets-F5': ('skip', 'characteristic 5 only'),
 'bullets-Q2-skew': ('pass', 'eigenvector bullets for t1'),
 'constant-chains': ('pass', 'both eigenvalue chains'),
 'dichotomy-char0': ('pass', 'fixed pair and two skew pairs'),
 'dichotomy-char5': ('skip', 'characteristic 5 only'),
 'eigenvectors-generic': ('pass',
                          '7 eigenvector identities and the expansion of '
                          'b'),
 'flip-symmetry': ('pass', 'a sigma row maps onto the b sigma row'),
 'identity-rational': ('pass', 'one = 3/5 of the basis sum'),
 'odd-subaxets': ('pass', 'Xskew(1) inside Xskew(k), k = 3, 5, 7'),
 'parameter-sum': ('pass',
                   'alpha + beta = 1 for 3C(1/4,3/4), 3C(-1,2), '
                   'Q2(1/3,2/3)'),
 'products-3C': ('pass', 'w y at alpha = 1/4, 2, -2 and symbolically'),
 'products-3C-minus1-2': ('pass', 'w y, y(u-v), y z'),
 'products-F5': ('skip', 'characteristic 5 only'),
 'products-Q2-skew': ('pass', 's1 t1 and t1 t2'),
 'projection-relation': ('pass', 'lambda_b(c) = -(P/beta) gammaf'),
 'quotient-pipeline': ('skip', 'characteristic 5 only'),
 'radical-F5': ('skip', 'characteristic 5 only'),
 'rehren-oracle': ('pass', 'admissible outcome labels'),
 'replay-nonorthogonal': ('pass',
                          'contradiction; contradiction; 3C(-1,2); '
                          '3C(alpha,1-alpha) for alpha != -1'),
 'replay-orthogonal': ('pass', 'Q2(1/3,2/3)'),
 'replay-orthogonal-F5': ('skip', 'characteristic 5 only'),
 'seress-property': ('pass', 'a(xu) = (ax)u across 17 algebra/axis pairs'),
 'seress-relation-u': ('pass', 'beta component of (ba)u - b(au)'),
 'seress-relation-v': ('pass',
                       'beta component of b(av) - (ba)v and its reduction'),
 'shift-expansion': ('pass',
                     'difference is 332/3 at a generic probe, 0 at the '
                     'branch point'),
 'shifted-pair': ('pass', 'sigma(0,2) collapse'),
 'table-Q2-third': ('pass', '10 pair entries'),
 'table-Q2x-plus-one': ('skip', 'characteristic 5 only'),
 'table-orthogonal-branch': ('pass', '10 pair entries')}

SUITE_CHAR5 = {'abstract-closures': ('pass', '3k points for k = 1..8'),
 'axes-char0': ('skip', 'characteristic 0 only'),
 'axes-char5': ('pass', '2 axes under their stated laws'),
 'axet-X4': ('pass', '4 points with the square action'),
 'axets-char0': ('skip', 'characteristic 0 only'),
 'axets-char5': ('pass', '3-point skew realization over F_5'),
 'bracket-table': ('skip', 'characteristic 0 only'),
 'bullets-3C': ('skip', 'characteristic 0 only'),
 'bullets-3C-minus1-2': ('skip', 'characteristic 0 only'),
 'bullets-F5': ('pass', 'eigenvector bullets over F_5'),
 'bullets-Q2-skew': ('skip', 'characteristic 0 only'),
 'constant-chains': ('skip', 'characteristic 0 only'),
 'dichotomy-char0': ('skip', 'characteristic 0 only'),
 'dichotomy-char5': ('pass', 'the adjoined-identity quotient'),
 'eigenvectors-generic': ('skip', 'characteristic 0 only'),
 'flip-symmetry': ('skip', 'characteristic 0 only'),
 'identity-rational': ('skip', 'characteristic 0 only'),
 'odd-subaxets': ('pass', 'Xskew(1) inside Xskew(k), k = 3, 5, 7'),
 'parameter-sum': ('pass',
                   'alpha + beta = 1 for 3C(-1,2), Q2(1/3)^x + one'),
 'products-3C': ('skip', 'characteristic 0 only'),
 'products-3C-minus1-2': ('skip', 'characteristic 0 only'),
 'products-F5': ('pass', 'w x and w y'),
 'products-Q2-skew': ('skip', 'characteristic 0 only'),
 'projection-relation': ('skip', 'characteristic 0 only'),
 'quotient-pipeline': ('pass', 'radical quotient plus adjoined identity'),
 'radical-F5': ('pass', 'no identity; the basis sum annihilates'),
 'rehren-oracle': ('skip', 'characteristic 0 only'),
 'replay-nonorthogonal': ('skip', 'characteristic 0 only'),
 'replay-orthogonal': ('skip', 'characteristic 0 only'),
 'replay-orthogonal-F5': ('pass', 'Q2(1/3)^x + one'),
 'seress-property': ('pass', 'a(xu) = (ax)u across 4 algebra/axis pairs'),
 'seress-relation-u': ('skip', 'characteristic 0 only'),
 'seress-relation-v': ('skip', 'characteristic 0 only'),
 'shift-expansion': ('skip', 'characteristic 0 only'),
 'shifted-pair': ('skip', 'characteristic 0 only'),
 'table-Q2-third': ('skip', 'characteristic 0 only'),
 'table-Q2x-plus-one': ('pass', '10 pair entries over F_5'),
 'table-orthogonal-branch': ('skip', 'characteristic 0 only')}

# repr of the replayed branch reports
REPLAY_ORTHOGONAL = {0: 'branch P = 0 -> Q2(1/3,2/3)\n'
    '  even subalgebra 2B would force l1 = 0 and an excluded Jordan axis\n'
    '  l1f = beta (so gammaf = 0, deltaf = -beta^2)\n'
    '  alpha = 1/3 from the (alpha, 2 alpha) pair\n'
    '  l1 = (beta + 1)/4 from the u obstruction\n'
    '  beta = 2/3 from P = 0\n'
    '  (alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3)\n'
    '  sigma^2 from f^2 = f: (5/18, 1/9, 1/6)\n'
    '  rebuilt multiplication table matches',
 5: 'branch P = 0 -> Q2(1/3)^x + one\n'
    '  even subalgebra 2B would force l1 = 0 and an excluded Jordan axis\n'
    '  l1f = beta (so gammaf = 0, deltaf = -beta^2)\n'
    '  alpha = 1/3 from the (alpha, 2 alpha) pair\n'
    '  l1 = (beta + 1)/4 from the u obstruction\n'
    '  beta = 2/3 from P = 0\n'
    '  (alpha, beta, l1, l1f) = (1/3, 2/3, 5/12, 2/3)\n'
    '  sigma^2 from f^2 = f: (5/18, 1/9, 1/6)\n'
    '  rebuilt multiplication table matches'}

REPLAY_NONORTHOGONAL = ['branch P != 0, pair algebra 2B -> contradiction\n'
 '  sigma = -beta a puts b in the beta part of a\n'
 '  witness: c = -b gives c^2 - c = 2b != 0',
 'branch P != 0, pair algebra S(2)deg -> contradiction\n'
 '  b + c is a mu eigenvector, mu = beta/p + beta\n'
 '  mu avoids 1 and beta, so mu is 0 or 1/2\n'
 '  mu = 1/2: (b+c)^2 = 2(b+c) violates alpha*alpha = {1,0}, forcing b + c '
 '= 0 against independence\n'
 '  mu = 0: p = -1 and a is a Jordan beta axis\n'
 '  witness: beta = 1/2 = alpha collapses the fusion parameters',
 'branch P != 0, pair algebra 3C(-1)^x -> 3C(-1,2)\n'
 '  b + c is a mu eigenvector, mu = -2beta/p + beta\n'
 '  mu avoids 1 and beta, so mu is 0 or -1\n'
 '  mu = -1: (b+c)^2 = -(b+c) violates alpha*alpha = {1,0}, forcing b + c '
 '= 0 against independence\n'
 '  mu = 0: p = 2, Rehren pins beta = 2\n'
 '  witness: alpha = -1, beta = 2',
 'branch P != 0, pair algebra 3-dimensional -> 3C(alpha,1-alpha) for alpha '
 '!= -1\n'
 '  fusion forces (alpha-beta)P/2 = beta^2 + deltaf = (alpha-1)gammaf\n'
 '  with the v obstruction the residual is (alpha-1)P/2, so alpha = 1 or P '
 '= 0, both excluded; the span is 3-dimensional\n'
 '  three-dimensional Jordan pairs with every idempotent of type 1/2 leave '
 'the beta part of a empty, so only 3C(alpha) survives\n'
 '  witness: residual (alpha-1)P/2']

# repr of skewverify check results; the three relation checks print
# the same with six of the eight symbols pinned
CHECKS = {'check_bracket_table': '[pass] bracket-table -- 11 beta components',
 'check_constant_chains': '[pass] constant-chains -- both eigenvalue '
                          'chains',
 'check_eigenvectors_generic': '[pass] eigenvectors-generic -- 7 '
                               'eigenvector identities and the expansion '
                               'of b',
 'check_flip_symmetry': '[pass] flip-symmetry -- a sigma row maps onto the '
                        'b sigma row',
 'check_projection_relation': '[pass] projection-relation -- lambda_b(c) = '
                              '-(P/beta) gammaf',
 'check_seress_relation_u': '[pass] seress-relation-u -- beta component of '
                            '(ba)u - b(au)',
 'check_seress_relation_v': '[pass] seress-relation-v -- beta component of '
                            'b(av) - (ba)v and its reduction',
 'check_shift_expansion': '[pass] shift-expansion -- difference is 332/3 '
                          'at a generic probe, 0 at the branch point',
 'check_shifted_pair': '[pass] shifted-pair -- sigma(0,2) collapse'}

# axetlab verify on a generated file of each kind: the eigenspace
# dimensions printed for each declared axis, in law order
VERIFY_DIMS = {'2B': ((1, 1, 0), (1, 1, 0)),
 '3C': ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
 '3C-1-2': ((1, 1, 0, 1), (1, 1, 1)),
 '3C-skew': ((1, 1, 0, 1), (1, 1, 1)),
 '3C-skew-Fp': ((1, 1, 0, 1), (1, 1, 1)),
 'Q2': ((1, 2, 1), (1, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
 'Q2-Fp': ((1, 2, 1), (1, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1)),
 'Q2-skew': ((1, 1, 1, 1), (1, 2, 1)),
 'Q2-skew-Fp': ((1, 1, 1, 1), (1, 2, 1)),
 'Q2x': ((1, 1, 0, 1), (1, 0, 1, 1)),
 'Q2x5': ((1, 1, 1, 1), (1, 2, 1)),
 'orthogonal': ((1, 1, 1, 1), (1, 2, 1))}

# axetlab axet on a generated file of each kind: (shape, points)
AXET_SHAPES = {'2B': ('X(2)', 2),
 '3C': ('X(3)', 3),
 '3C-1-2': ('Xskew(1)', 3),
 '3C-skew': ('Xskew(1)', 3),
 '3C-skew-Fp': ('Xskew(1)', 3),
 'Q2': ('X(4)', 4),
 'Q2-Fp': ('X(4)', 4),
 'Q2-skew': ('Xskew(1)', 3),
 'Q2-skew-Fp': ('Xskew(1)', 3),
 'Q2x': ('X(4)', 4),
 'Q2x5': ('Xskew(1)', 3),
 'orthogonal': ('Xskew(1)', 3)}

# dichotomy_check labels of the skew-pair kinds with a fixed parameter
DICHOTOMY_LABELS = {'3C-1-2': '3C(-1,2)',
 'Q2-skew': 'Q2(1/3,2/3)',
 'Q2-skew-Fp': 'Q2(1/3,2/3)',
 'Q2x5': 'Q2(1/3)^x + one',
 'orthogonal': 'Q2(1/3,2/3)'}
