"""
Frozen literals that more than one test module reads, each defined once.

Every value was printed by tests/oracles/gen_expected.py, which does not
import the package; a test module imports the names it reads from here and
keeps the literals only it reads.  Do not edit a value by hand: rerun the
script and copy its output.
"""

from bztflow.thermo import GasModel

G15 = GasModel(1.5)

# the isentrope S98 = 0.98 S* of gamma = 1.5 and its landmarks
S_STAR_15 = 0.3544893358184198
S98 = 0.3473995491020514
TAU1_I = 6.222021767887082
TAU2_I = 10.602988762877068
TAU_F_E = 5.451165090410962
TAU_D = 15.025623552912846
S_D = 0.34813341598088193

# the potential post-sonic shock from the middle of its front window
TAU_F_MID_PO = 25.006597968134916
TAU_PO_POTENTIAL = 7.481738396911066

# the compression-ramp (wave-curve) fixture: incoming state (U0, 0) at
# TAU0 = TAU_F_MID_PO on S98, its head ray, the least composite deflection
# and the fan, tail and wall states at the middle of the composite window,
# whose flow angle SIGMA_IJ_MID is the fixture's wall angle
U0 = 0.32
TAU0 = TAU_F_MID_PO
PHI_PO = 0.8738549683139092
SIGMA_M = 0.5786914579282845
TAU_W_MID = 6.851880082399074
ALPHA_HAT_MID = 0.8302915568676801
U_PI_MID = 0.18377549599152085
V_PI_MID = 0.11419010160108702
TAU_PR_MID = 5.371779549384593
U_IJ_MID = 0.17443032757047178
V_IJ_MID = 0.12273173107194663
SIGMA_IJ_MID = 0.6131477758288368
