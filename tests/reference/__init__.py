"""
Reference instruments the tests check bztflow against.  The package
never calls them; each is written apart from the solver path it checks.

Modules:
  characteristics  characteristic frames and finite-difference residuals
                   of the paper's characteristic decompositions
  turning          closed-form isentrope relations and the QUADPACK
                   turning integral in the volume: the Riemann invariants
                   and the potential fan
  polar            the shock-polar function of a front state and the
                   tangency checks of the composite wave curve
"""
