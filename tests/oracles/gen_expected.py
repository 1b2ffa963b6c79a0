"""Generate the frozen expected values used in the test-suite, independently
of the package under test.

Everything here is straight evaluation of the closed-form reduced van der
Waals relations plus plain interval bisection, so that the numbers asserted in
the tests do not depend on any code path of bztflow itself.

Run:  python tests/oracles/gen_expected.py
and paste the printed block into the tests that cite this script.
"""

from math import inf


def p(tau, S, g):
    # reduced vdW pressure on an isentrope labelled by S
    return S / (tau - 1.0) ** g - 1.0 / tau**2


def p_tau(tau, S, g):
    return -g * S / (tau - 1.0) ** (g + 1.0) + 2.0 / tau**3


def p_tautau(tau, S, g):
    return g * (g + 1.0) * S / (tau - 1.0) ** (g + 2.0) - 6.0 / tau**4


def S_of(pval, tau, g):
    return (pval + 1.0 / tau**2) * (tau - 1.0) ** g


def inflection_p(tau, g):
    # pressure on the isentrope-inflection locus
    return (6.0 / (g * (g + 1.0)) * (1.0 - 1.0 / tau) ** 2 - 1.0) / tau**2


def double_sonic_p(tau, g):
    num = ((2.0 - g) ** 2 * tau**3
           - (2.0 - g) * (4.0 - 3.0 * g) * tau**2
           - 8.0 * (g - 1.0) * tau
           - 4.0)
    return num / (2.0 * g * (g + 1.0) * tau**4)


def h(tau, S, g):
    # specific enthalpy with the natural normalization h -> 0 as tau -> inf
    return (g * S / ((g - 1.0) * (tau - 1.0) ** (g - 1.0))
            + S / (tau - 1.0) ** g - 2.0 / tau)


def bisect(f, a, b, n=200):
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    assert (fa > 0.0) != (fb > 0.0), f"no sign change on [{a}, {b}]"
    for _ in range(n):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa > 0.0) != (fm > 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def first_crossing(f, a, step, n=100000):
    # scan outward from a until f changes sign, then bisect that bracket
    fa = f(a)
    t = a
    for _ in range(n):
        t2 = t + step
        f2 = f(t2)
        if (fa > 0.0) != (f2 > 0.0):
            return bisect(f, t, t2)
        t, fa = t2, f2
    raise RuntimeError("no crossing found")


def golden_max(f, a, b, n=300):
    invphi = 0.6180339887498949
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(n):
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def main():
    for g in (1.2, 1.5, 1.8):
        tau_star = 4.0 / (2.0 - g)
        i_star = inflection_p(tau_star, g)
        d_star = double_sonic_p(tau_star, g)
        S_star = S_of(i_star, tau_star, g)
        # hyperbolicity boundary: tangency of the isentrope with p_tau = 0,
        # located as the maximum over tau of S on the p_tau = 0 set
        g_env = lambda t: 2.0 * (t - 1.0) ** (g + 1.0) / (g * t**3)
        tau_cr = golden_max(g_env, 1.0 + 1e-9, 60.0)
        S_cr = g_env(tau_cr)
        print(f"gamma = {g}")
        print(f"  tau_star = {tau_star!r}")
        print(f"  i(tau_star) = {i_star!r}")
        print(f"  d(tau_star) = {d_star!r}")
        print(f"  S_star = {S_star!r}")
        print(f"  tau_cr = {tau_cr!r}  (closed form {3.0 / (2.0 - g)!r})")
        print(f"  S_cr = {S_cr!r}")
        if g != 1.5:
            continue

        S98 = 0.98 * S_star
        # inflection pair at S = 0.98 S*: sign changes of p_tautau around tau*
        t1i = bisect(lambda t: p_tautau(t, S98, g), 1.0 + 1e-9, tau_star)
        t2i = bisect(lambda t: p_tautau(t, S98, g), tau_star, 80.0)
        # locus intersections: p(., S98) crosses the double-sonic locus
        f_ds = lambda t: p(t, S98, g) - double_sonic_p(t, g)
        tfe = first_crossing(lambda t: f_ds(-t), -tau_star, 0.01)
        tfe = -tfe
        tbe = first_crossing(f_ds, tau_star, 0.01)
        eta_hat = 2.0 / ((2.0 - g) * tfe - 2.0)
        tau_d = eta_hat * tfe
        S_d = S_of(double_sonic_p(tau_d, g), tau_d, g)
        print(f"  S98 = {S98!r}")
        print(f"  tau1_i(S98) = {t1i!r}")
        print(f"  tau2_i(S98) = {t2i!r}")
        print(f"  tau_f_e(S98) = {tfe!r}")
        print(f"  tau_b_e(S98) = {tbe!r}")
        print(f"  eta_hat(tau_f_e) = {eta_hat!r}")
        print(f"  tau_d = {tau_d!r}")
        print(f"  S_d = {S_d!r}")

        # potential-flow landmarks on the same isentrope:
        # conjugate volumes share the chord slope with the inflection pair
        t1a = bisect(lambda t: p_tau(t, S98, g) - p_tau(t2i, S98, g),
                     1.0 + 1e-9, t1i)
        t2a = bisect(lambda t: p_tau(t, S98, g) - p_tau(t1i, S98, g),
                     t2i, 400.0)
        # tau_c: chord from tau1_i is tangent there (secant slope in the
        # squared-volume chart equals p_tau at tau1_i)
        def chord_gap(t):
            return (p_tau(t1i, S98, g)
                    - (2.0 * h(t, S98, g) - 2.0 * h(t1i, S98, g))
                    / (t**2 - t1i**2))
        tau_c = bisect(chord_gap, t2a + 1e-9, 400.0)
        print(f"  tau1_a(S98) = {t1a!r}")
        print(f"  tau2_a(S98) = {t2a!r}")
        print(f"  tau_c(S98) = {tau_c!r}")

        # --- shock-family landmarks, S = 0.98 S* ----------------------
        # sonic mass flux at the front volume of the double-sonic pair
        m2_ds = -p_tau(tfe, S98, g)
        print(f"  m2_ds = {m2_ds!r}")

        # Euler back state with a sonic back side, at the midpoint of the
        # admissible front window.  Nested bisection: the inner loop picks
        # the back entropy that closes the Hugoniot relation at fixed
        # tau_b, the outer loop drives the back-side tangency (chord slope
        # equal to the isentrope slope at the back point) to zero.
        def eps(pval, tau):
            return (pval + 1.0 / tau**2) * (tau - 1.0) / (g - 1.0) - 1.0 / tau

        tau_f_mid = 0.5 * (tfe + t1i)
        p_f = p(tau_f_mid, S98, g)
        e_f = eps(p_f, tau_f_mid)

        def back_entropy(tau_b):
            def hug(S_b):
                p_b = p(tau_b, S_b, g)
                return (e_f - eps(p_b, tau_b)
                        + 0.5 * (tau_f_mid - tau_b) * (p_f + p_b))
            return bisect(hug, 1e-3, 3.0 * S_star)

        def back_tangency(tau_b):
            S_b = back_entropy(tau_b)
            p_b = p(tau_b, S_b, g)
            m2 = -(p_f - p_b) / (tau_f_mid - tau_b)
            return m2 + p_tau(tau_b, S_b, g)

        tau_po_e = bisect(back_tangency, t2i, 30.0)
        S_po_e = back_entropy(tau_po_e)
        print(f"  tau_f_mid_euler = {tau_f_mid!r}")
        print(f"  tau_po_euler = {tau_po_e!r}")
        print(f"  S_po_euler = {S_po_e!r}")
        print(f"  # tangency residual {back_tangency(tau_po_e):.3e}")

        # potential-flow counterparts on the same isentrope: the chord is
        # taken in the squared-volume chart, back-sonic for tau_po and
        # front-sonic for tau_pr
        def chord2(tau_b, tau_f):
            return ((2.0 * h(tau_f, S98, g) - 2.0 * h(tau_b, S98, g))
                    / (tau_f**2 - tau_b**2))

        tau_f_po = 0.5 * (t2i + tau_c)
        tau_po_pot = bisect(lambda t: chord2(t, tau_f_po) - p_tau(t, S98, g),
                            t1i + 1e-9, t2i - 1e-9)
        tau_f_pr = 0.5 * (t1i + t2i)
        g4 = lambda t: (2.0 * h(tau_f_pr, S98, g) - 2.0 * h(t, S98, g)
                        - p_tau(tau_f_pr, S98, g) * (tau_f_pr**2 - t**2))
        tau_pr_pot = bisect(g4, 1.0 + 1e-6, t1i)
        print(f"  tau_f_mid_po = {tau_f_po!r}")
        print(f"  tau_po_potential = {tau_po_pot!r}")
        print(f"  tau_f_mid_pr = {tau_f_pr!r}")
        print(f"  tau_pr_potential = {tau_pr_pot!r}")
        print(f"  # po residual {chord2(tau_po_pot, tau_f_po) - p_tau(tau_po_pot, S98, g):.3e}"
              f", pr residual {g4(tau_pr_pot):.3e}")

        # --------------------------------------------------------------
        # oblique wave-curve fixture: incoming state (u0, 0) with volume
        # tau0 = tau_f_mid_po on the same isentrope, u0 = 0.32.  The fan
        # turning integral is done with composite Gauss-Legendre panels in
        # tau (numpy.polynomial.legendre), so none of these numbers share
        # a code path with the adaptive quadrature inside the package.
        # --------------------------------------------------------------
        import math
        from numpy.polynomial.legendre import leggauss

        tau0 = tau_f_po
        tau_po = tau_po_pot
        U0 = 0.32

        def N_front(tau_b):
            # normal speed of the incoming state across a chord to tau_b
            return tau0 * math.sqrt(-chord2(tau_b, tau0))

        def polar_point(tau_b):
            Nf = N_front(tau_b)
            phi = math.asin(Nf / U0)
            L = U0 * math.cos(phi)
            Nb = tau_b / tau0 * Nf
            return (Nb * math.sin(phi) + L * math.cos(phi),
                    L * math.sin(phi) - Nb * math.cos(phi), phi)

        def cc(t):
            return t * math.sqrt(-p_tau(t, S98, g))

        N_po = N_front(tau_po)
        u_po, v_po, phi_po = polar_point(tau_po)
        q_po = math.hypot(u_po, v_po)
        sigma_po = math.atan2(v_po, u_po)
        print("  wavecurve fixture: U0 = 0.32, tau0 = tau_f_mid_po")
        print(f"  N_po = {N_po!r}")
        print(f"  phi_po = {phi_po!r}")
        print(f"  u_po = {u_po!r}")
        print(f"  v_po = {v_po!r}")
        print(f"  q_po = {q_po!r}")
        print(f"  sigma_po = {sigma_po!r}")
        print(f"  # back normal minus c at P: "
              f"{tau_po / tau0 * N_po - cc(tau_po):.3e}")

        tb_mid_bp = 0.5 * (tau_po + tau0)
        u_bp, v_bp, _ = polar_point(tb_mid_bp)
        print(f"  tau_b_mid_bp = {tb_mid_bp!r}")
        print(f"  u_bp_mid = {u_bp!r}")
        print(f"  v_bp_mid = {v_bp!r}")

        def g4f(t, tf):
            return (2.0 * h(tf, S98, g) - 2.0 * h(t, S98, g)
                    - p_tau(tf, S98, g) * (tf**2 - t**2))

        tau_pr_po = bisect(lambda t: g4f(t, tau_po), 1.0 + 1e-6, t1i)
        tau_n = bisect(lambda t: N_front(t) - U0, 1.0 + 1e-6, tau_pr_po)
        print(f"  tau_pr_po = {tau_pr_po!r}")
        print(f"  tau_n = {tau_n!r}")
        tb_mid_jn = 0.5 * (tau_n + tau_pr_po)
        u_jn, v_jn, _ = polar_point(tb_mid_jn)
        print(f"  tau_b_mid_jn = {tb_mid_jn!r}")
        print(f"  u_jn_mid = {u_jn!r}")
        print(f"  v_jn_mid = {v_jn!r}")

        # fan states behind the leading shock: Bernoulli ties the speed to
        # the volume, the flow angle follows from the turning integral
        def q_of(t):
            return math.sqrt(q_po * q_po + 2.0 * h(tau_po, S98, g)
                             - 2.0 * h(t, S98, g))

        # Python floats, so that every value prints as a plain float repr
        xg, wg = (v.tolist() for v in leggauss(40))

        def turn_panel(a, b):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            tot = 0.0
            for xi, wi in zip(xg, wg):
                tt = mid + half * xi
                q = q_of(tt)
                c = cc(tt)
                dq = -tt * p_tau(tt, S98, g) / q
                tot += wi * half * math.sqrt(q * q - c * c) / (q * c) * dq
            return tot

        def sigma_hat(t):
            edges = [tau_po + (t - tau_po) * k / 8.0 for k in range(9)]
            return sigma_po - sum(turn_panel(a, b)
                                  for a, b in zip(edges[:-1], edges[1:]))

        def tail_state(tf):
            # front on the fan branch, back across the front-sonic shock
            sh = sigma_hat(tf)
            q = q_of(tf)
            c = cc(tf)
            a = sh + math.asin(c / q)
            if tf <= t1i:
                return q * math.cos(sh), q * math.sin(sh), a
            tpr = bisect(lambda t: g4f(t, tf), 1.0 + 1e-6, t1i)
            L = math.sqrt(q * q - c * c)
            Nb = tpr / tf * c
            return (Nb * math.sin(a) + L * math.cos(a),
                    L * math.sin(a) - Nb * math.cos(a), a)

        tau_w_mid = 0.5 * (t1i + tau_po)
        sh_mid = sigma_hat(tau_w_mid)
        qh_mid = q_of(tau_w_mid)
        ah_mid = sh_mid + math.asin(cc(tau_w_mid) / qh_mid)
        print(f"  tau_w_mid = {tau_w_mid!r}")
        print(f"  q_hat_mid = {qh_mid!r}")
        print(f"  sigma_hat_mid = {sh_mid!r}")
        print(f"  alpha_hat_mid = {ah_mid!r}")
        print(f"  u_pi_mid = {qh_mid * math.cos(sh_mid)!r}")
        print(f"  v_pi_mid = {qh_mid * math.sin(sh_mid)!r}")
        tau_pr_mid = bisect(lambda t: g4f(t, tau_w_mid), 1.0 + 1e-6, t1i)
        print(f"  tau_pr_mid = {tau_pr_mid!r}")
        u_ij, v_ij, _ = tail_state(tau_w_mid)
        print(f"  u_ij_mid = {u_ij!r}")
        print(f"  v_ij_mid = {v_ij!r}")
        print(f"  sigma_ij_mid = {math.atan2(v_ij, u_ij)!r}")
        print(f"  # supersonic back margin q_b - c(tau_pr_mid): "
              f"{math.hypot(u_ij, v_ij) - cc(tau_pr_mid):.3e}")

        # deflection angle of the composite back state over the closed
        # window, cumulative turning panel by panel
        nscan = 2000
        ts = [tau_po + (t1i - tau_po) * k / nscan for k in range(nscan + 1)]
        sig = [sigma_po]
        for a, b in zip(ts[:-1], ts[1:]):
            sig.append(sig[-1] - turn_panel(a, b))
        sigma_bt = []
        for tf, sh in zip(ts, sig):
            q = q_of(tf)
            c = cc(tf)
            a = sh + math.asin(c / q)
            if tf <= t1i + 1e-12 * t1i:
                u, v = q * math.cos(sh), q * math.sin(sh)
            else:
                tpr = bisect(lambda t: g4f(t, tf), 1.0 + 1e-6, t1i, n=100)
                L = math.sqrt(q * q - c * c)
                Nb = tpr / tf * c
                u = Nb * math.sin(a) + L * math.cos(a)
                v = L * math.sin(a) - Nb * math.cos(a)
            sigma_bt.append(math.atan2(v, u))
        k_min = min(range(len(ts)), key=lambda k: sigma_bt[k])
        k_max = max(range(len(ts)), key=lambda k: sigma_bt[k])
        print(f"  sigma_bt_at_po = {sigma_bt[0]!r}")
        print(f"  sigma_bt_at_t1i = {sigma_bt[-1]!r}")
        print(f"  sigma_m_scan = {sigma_bt[k_min]!r}  at tau = {ts[k_min]!r}")
        print(f"  sigma_M_scan = {sigma_bt[k_max]!r}  at tau = {ts[k_max]!r}")

        # coincidence of the strong-polar junction: the single shock down
        # to tau_pr_po shares inclination and back state with the
        # zero-width limit of the composite at tau_f^t = tau_po
        u_j1, v_j1, phi_j1 = polar_point(tau_pr_po)
        c_po = cc(tau_po)
        a_po = sigma_po + math.asin(c_po / q_po)
        L_t = math.sqrt(q_po * q_po - c_po * c_po)
        Nb_t = tau_pr_po / tau_po * c_po
        u_j2 = Nb_t * math.sin(a_po) + L_t * math.cos(a_po)
        v_j2 = L_t * math.sin(a_po) - Nb_t * math.cos(a_po)
        print(f"  u_j = {u_j1!r}")
        print(f"  v_j = {v_j1!r}")
        print(f"  # junction gap: phi {phi_j1 - a_po:.3e}, "
              f"u {u_j1 - u_j2:.3e}, v {v_j1 - v_j2:.3e}")

        # acuteness of the angle between the backward tangent of the
        # composite branch and the state vector at the midpoint
        e_fd = 1e-6
        up, vp, _ = tail_state(tau_w_mid + e_fd)
        um, vm, _ = tail_state(tau_w_mid - e_fd)
        du, dv = (up - um) / (2 * e_fd), (vp - vm) / (2 * e_fd)
        print(f"  # inner product -(u',v').(u,v) at tau_w_mid: "
              f"{-(du * u_ij + dv * v_ij):.6e}")

        # --------------------------------------------------------------
        # centred-ramp fixture with an embedded double-sonic shock:
        # incoming state at tau0 = 0.9 tau_f_e, Mach 2, entropy S98.
        # Fan turning integrals again by composite Gauss-Legendre panels
        # in tau, root finding by plain bisection.
        # --------------------------------------------------------------
        tau0_r = 0.9 * tfe
        c0_r = tau0_r * math.sqrt(-p_tau(tau0_r, S98, g))
        u0_r = 2.0 * c0_r
        B0_r = 0.5 * u0_r**2 + h(tau0_r, S98, g)
        alpha0_r = math.asin(c0_r / u0_r)
        print("  ramp fixture: tau0 = 0.9 tau_f_e, Mach 2")
        print(f"  tau0_r = {tau0_r!r}")
        print(f"  u0_r = {u0_r!r}")
        print(f"  B0_r = {B0_r!r}")
        print(f"  alpha0_r = {alpha0_r!r}")

        def cS(t, S):
            return t * math.sqrt(-p_tau(t, S, g))

        def fan_sigma_drop(tau_a, tau_b, S, q_at, n_pan=8):
            # total turning between two volumes on one isentrope, with
            # q_at the Bernoulli speed on that isentrope
            edges = [tau_a + (tau_b - tau_a) * k / n_pan
                     for k in range(n_pan + 1)]
            tot = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                for xi, wi in zip(xg, wg):
                    tt = mid + half * xi
                    q = q_at(tt)
                    c = cS(tt, S)
                    dq = -tt * p_tau(tt, S, g) / q
                    tot += wi * half * math.sqrt(q * q - c * c) / (q * c) * dq
            return tot

        def q_left(t):
            return math.sqrt(u0_r**2
                             + 2.0 * (h(tau0_r, S98, g) - h(t, S98, g)))

        sigma1 = -fan_sigma_drop(tau0_r, tfe, S98, q_left)
        q1 = q_left(tfe)
        c1 = cS(tfe, S98)
        phi_d = sigma1 + math.asin(c1 / q1)
        print(f"  sigma1_r = {sigma1!r}")
        print(f"  q1_r = {q1!r}")
        print(f"  phi_d_r = {phi_d!r}")

        # jump across the double-sonic front: tangential kept, normal
        # scaled by the volume ratio
        L1 = math.sqrt(q1 * q1 - c1 * c1)
        N_b = tau_d / tfe * c1
        c_dd = cS(tau_d, S_d)
        u_dd = N_b * math.sin(phi_d) + L1 * math.cos(phi_d)
        v_dd = L1 * math.sin(phi_d) - N_b * math.cos(phi_d)
        q_dd = math.hypot(u_dd, v_dd)
        sigma_dd = math.atan2(v_dd, u_dd)
        A_dd = math.asin(c_dd / q_dd)
        print(f"  u_d_r = {u_dd!r}")
        print(f"  v_d_r = {v_dd!r}")
        print(f"  q_d_r = {q_dd!r}")
        print(f"  sigma_d_r = {sigma_dd!r}")
        print(f"  # back normal minus c_d: {N_b - c_dd:.3e}, "
              f"ray defect {phi_d - sigma_dd - A_dd:.3e}, "
              f"Bernoulli defect {0.5 * q_dd**2 + h(tau_d, S_d, g) - B0_r:.3e}")

        # vacuum limit of the downstream fan: remaining turning with the
        # substitution q = q_lim - w^4, which makes the integrand smooth,
        # and the volume recovered from the enthalpy gap by bisection in
        # log tau
        h_d_r = h(tau_d, S_d, g)
        q_lim_r = math.sqrt(q_dd * q_dd + 2.0 * h_d_r)

        def tau_of_gap(gap):
            f = lambda x: h(math.exp(x), S_d, g) - gap
            x = bisect(f, math.log(tau_d) - 1e-12, 100.0, n=300)
            return math.exp(x)

        w_top = (q_lim_r - q_dd) ** 0.25
        edges = [w_top * k / 8.0 for k in range(9)]
        turn_vac = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(xg, wg):
                w = mid + half * xi
                q = q_lim_r - w**4
                gap = 0.5 * w**4 * (2.0 * q_lim_r - w**4)
                t = tau_of_gap(gap)
                c = cS(t, S_d)
                turn_vac += (wi * half * 4.0 * w**3
                             * math.sqrt(q * q - c * c) / (q * c))
        alpha_v_r = sigma_dd - turn_vac
        print(f"  q_lim_r = {q_lim_r!r}")
        print(f"  alpha_v_r = {alpha_v_r!r}")

        # wall angle for the four-piece example: fixed literal inside
        # (alpha_v, sigma_d), then the slip volume on the downstream fan
        theta_w_r = round(sigma_dd - 0.4 * (sigma_dd - alpha_v_r), 6)
        print(f"  theta_w_r = {theta_w_r!r}")

        def q_right(t):
            return math.sqrt(q_dd * q_dd + 2.0 * (h_d_r - h(t, S_d, g)))

        def sigma_right(t):
            return sigma_dd - fan_sigma_drop(tau_d, t, S_d, q_right)

        t_hi = 2.0 * tau_d
        while sigma_right(t_hi) > theta_w_r:
            t_hi *= 2.0
        tau_slip = bisect(lambda t: sigma_right(t) - theta_w_r, tau_d, t_hi)
        q_w_r = q_right(tau_slip)
        A_w_r = math.asin(cS(tau_slip, S_d) / q_w_r)
        alpha_w_r = theta_w_r + A_w_r
        print(f"  tau_slip_r = {tau_slip!r}")
        print(f"  q_w_r = {q_w_r!r}")
        print(f"  alpha_w_r = {alpha_w_r!r}")
        print(f"  u_w_r = {q_w_r * math.cos(theta_w_r)!r}")
        print(f"  v_w_r = {q_w_r * math.sin(theta_w_r)!r}")
        print(f"  # wall Bernoulli defect "
              f"{0.5 * q_w_r**2 + h(tau_slip, S_d, g) - B0_r:.3e}")

        # one interior probe ray on each fan for dense-output checks
        t_ml = 0.5 * (tau0_r + tfe)
        s_ml = -fan_sigma_drop(tau0_r, t_ml, S98, q_left)
        th_ml = s_ml + math.asin(cS(t_ml, S98) / q_left(t_ml))
        print(f"  tau_ml_r = {t_ml!r}")
        print(f"  theta_ml_r = {th_ml!r}")
        print(f"  q_ml_r = {q_left(t_ml)!r}")
        print(f"  sigma_ml_r = {s_ml!r}")
        t_mr = 0.5 * (tau_d + tau_slip)
        s_mr = sigma_right(t_mr)
        th_mr = s_mr + math.asin(cS(t_mr, S_d) / q_right(t_mr))
        print(f"  tau_mr_r = {t_mr!r}")
        print(f"  theta_mr_r = {th_mr!r}")
        print(f"  q_mr_r = {q_right(t_mr)!r}")
        print(f"  sigma_mr_r = {s_mr!r}")

        # at Mach 10 the whole turning to cavitation fits above the
        # downward vertical, so a wall can undercut the vacuum ray
        u0_v = 10.0 * c0_r
        qv = lambda t: math.sqrt(u0_v**2
                                 + 2.0 * (h(tau0_r, S98, g) - h(t, S98, g)))
        s1_v = -fan_sigma_drop(tau0_r, tfe, S98, qv)
        q1_v = qv(tfe)
        phid_v = s1_v + math.asin(c1 / q1_v)
        L1_v = math.sqrt(q1_v**2 - c1 * c1)
        u_dv = N_b * math.sin(phid_v) + L1_v * math.cos(phid_v)
        v_dv = L1_v * math.sin(phid_v) - N_b * math.cos(phid_v)
        q_dv = math.hypot(u_dv, v_dv)
        s_dv = math.atan2(v_dv, u_dv)
        qlim_v = math.sqrt(q_dv * q_dv + 2.0 * h_d_r)
        w_top = (qlim_v - q_dv) ** 0.25
        edges = [w_top * k / 8.0 for k in range(9)]
        tv = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(xg, wg):
                w = mid + half * xi
                q = qlim_v - w**4
                t = tau_of_gap(0.5 * w**4 * (2.0 * qlim_v - w**4))
                c = cS(t, S_d)
                tv += wi * half * 4.0 * w**3 * math.sqrt(q * q - c * c) / (q * c)
        print(f"  u0_vac = {u0_v!r}")
        print(f"  sigma_d_vac = {s_dv!r}")
        print(f"  alpha_v_vac = {s_dv - tv!r}")
        print(f"  q_lim_vac = {qlim_v!r}")


if __name__ == "__main__":
    main()
