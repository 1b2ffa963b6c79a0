"""
bztflow: nonclassical wave objects of steady supersonic dense-gas flow.

A reduced van der Waals (BZT) gas admits shocks and fans that classical gas
dynamics forbids: rarefaction shocks, sonic shocks, and composite
fan-shock-fan / shock-fan-shock patterns. This package builds those objects
for two-dimensional steady ramp flow, for both the full Euler system and its
isentropic irrotational (potential) reduction, together with the
characteristic geometry that supports them.

Modules:
  thermo          reduced van der Waals relations, loci, entropy landmarks
  shocks          oblique shock jump relations, sonic shock families
  fan             centered expansion fans and turning-angle integrals
  characteristics characteristic frames and the decomposition residuals
  wavecurves      composite wave curves in the hodograph plane
  selfsimilar     self-similar ramp-flow assemblies (fan-shock-fan and
                  shock-fan-shock)
"""

__version__ = "0.1.0"
