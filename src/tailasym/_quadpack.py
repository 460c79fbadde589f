"""Globally adaptive 21-point Gauss-Kronrod quadrature on a finite interval.

integrate is the bisection loop of QUADPACK's dqagse (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, QUADPACK, Springer
1983) without its Wynn epsilon extrapolation, which serves integrands with
end-point singularities; the squared tail-copula slices integrated here are
bounded and continuous.  _dqk21 is QUADPACK's dqk21: every operation is a
scalar float operation in QUADPACK's own order, so wherever
scipy.integrate.quad with epsrel=0 converges within two subintervals,
integrate returns the same value, error estimate and subinterval count,
bit for bit; a test pins them.  Vectorising the nodes or regrouping a sum would change
the bits.  A float power that overflows raises in Python where C's pow
gives inf, so dqk21's power is guarded.  The node and weight tables are
indexed from 1, as in the Fortran, with slot 0 unused.
"""

import math
import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# dqk21's abscissae of the 21-point Kronrod rule (xgk, the even entries are
# the 10-point Gauss nodes), and the weights of both rules.
_XGK = (
    None,
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980629011,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

def _pow15(x):
    # C's pow gives inf where Python's ** raises.
    try:
        return x**1.5
    except OverflowError:
        return math.inf


def _dqk21(f, a, b):
    """(result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, _pow15(200.0 * abserr / resasc))
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def integrate(f, a, b, epsabs, limit):
    """Integrate f over the finite [a, b] to the absolute tolerance epsabs.

    f maps a float to a float.  Starting from one 21-point rule on [a, b],
    bisect the subinterval with the largest error estimate; the half with
    the larger estimate keeps its slot and the other is appended, as in
    dqagse.  Stop once the estimates sum to at most epsabs, or once
    50 eps |area| exceeds epsabs: dqk21 floors each estimate at 50 eps
    times the integral of |f| over its subinterval, so no bisection brings
    the sum down to epsabs.  Returns (value, abserr, last, converged): the
    areas summed in slot order, the summed estimates, the number of
    subintervals, and False only if all limit subintervals are in use and
    abserr still exceeds epsabs.
    """
    area, errsum, _, resasc = _dqk21(f, a, b)
    parts = [(a, b, area, errsum)]  # (lower end, upper end, area, error)
    # As in dqagse, a first estimate that equals resasc is not trusted.
    untrusted = errsum == resasc != 0.0
    while (
        (errsum > epsabs or untrusted)
        and len(parts) < limit
        and 50.0 * _EPMACH * abs(area) <= epsabs
    ):
        untrusted = False
        i = max(range(len(parts)), key=lambda j: parts[j][3])
        lo, hi, area_i, error_i = parts[i]
        mid = 0.5 * (lo + hi)
        left = (lo, mid, *_dqk21(f, lo, mid)[:2])
        right = (mid, hi, *_dqk21(f, mid, hi)[:2])
        errsum = errsum + (left[3] + right[3]) - error_i
        area = area + (left[2] + right[2]) - area_i
        if right[3] > left[3]:
            left, right = right, left
        parts[i] = left
        parts.append(right)
    value = 0.0
    for part in parts:
        value = value + part[2]
    return value, errsum, len(parts), len(parts) < limit or errsum <= epsabs
