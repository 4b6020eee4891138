/* Loop kernels of evopoisson, compiled on first import by _kernels.py.
 *
 * Each function repeats its py_* twin in _kernels.py operation for
 * operation, with the same libm exp and log. Built without fast-math and
 * without contraction into fused multiply-adds, the results are bitwise
 * equal to the Python twins'. Counts and flags come back through the
 * pointer arguments; see the wrappers in _kernels.py for the layout.
 *
 * There are three loops: bisect_root, discrete_path and rk4_path.
 * equilibrate is discrete_path at a constant step that stores no path.
 *
 * Schedule family codes: 0 -> 1/n, 1 -> 1/(1 + n log n), 2 -> 1/n^2,
 * 3 -> constant h.
 */
#include <math.h>

double poly(const double *c, long long nc, double y)
{
    double acc = 0.0;
    for (long long i = nc - 1; i >= 0; i--)
        acc = acc * y + c[i];
    return acc;
}

double safe_prob(const double *c, long long nc, double y)
{
    return exp(-y) * poly(c, nc, y);
}

double cost_off(const double *c, long long nc, double y, double big_k)
{
    double u = big_k * (1.0 - safe_prob(c, nc, y));
    if (u < 0.0)
        u = 0.0;
    else if (u > big_k)
        u = big_k;
    return u;
}

double drift(const double *c, long long nc, double lam, double big_k,
             double price, double p, double eps)
{
    return p * (1.0 - p) * (price - cost_off(c, nc, lam * p, big_k)) / eps;
}

/* p + step, with the step halved until the iterate stays strictly inside
 * (0, 1) or stops moving. */
static double halving_step(double p, double step)
{
    double pn = p + step;
    while (pn <= 0.0 || pn >= 1.0) {
        step *= 0.5;
        pn = p + step;
        if (pn == p)
            break;
    }
    return pn;
}

double bisect_root(const double *c, long long nc, double lam, double target,
                   double tol, long long max_iter, long long *iters, int *ok)
{
    double lo = 0.0, hi = 1.0;
    long long it = 0;
    *ok = 1;
    while (hi - lo > tol && it < max_iter) {
        double mid = 0.5 * (lo + hi);
        double val = safe_prob(c, nc, lam * mid);
        if (!isfinite(val)) {
            *ok = 0;
            break;
        }
        if (val > target)
            lo = mid;
        else
            hi = mid;
        it++;
    }
    *iters = it;
    return 0.5 * (lo + hi);
}

long long discrete_path(const double *c, long long nc, double lam,
                        double big_k, double price, double p0,
                        long long n_max, double tol, int family, double h,
                        long long stride, long long cap, double *idx,
                        double *path, long long *n_total, int *converged,
                        double *p_final)
{
    long long m = 1, n_done = 0;
    double p = p0;
    *converged = 0;
    idx[0] = 0.0;
    path[0] = p0;
    for (long long n = 1; n <= n_max; n++) {
        double x = (double)n, b;
        if (family == 0)
            b = 1.0 / x;
        else if (family == 1)
            b = 1.0 / (1.0 + x * log(x));
        else if (family == 2)
            b = 1.0 / (x * x);
        else
            b = h;
        double dr = drift(c, nc, lam, big_k, price, p, 1.0);
        n_done = n;
        if (fabs(dr) < tol) {
            *converged = 1;
            break;
        }
        p = halving_step(p, b * dr);
        if (n % stride == 0 && m < cap - 1) {
            idx[m] = x;
            path[m] = p;
            m++;
        }
    }
    if (idx[m - 1] != (double)n_done || path[m - 1] != p) {
        idx[m] = (double)n_done;
        path[m] = p;
        m++;
    }
    *n_total = n_done;
    *p_final = p;
    return m;
}

long long rk4_path(const double *c, long long nc, double lam, double big_k,
                   double price, double p0, double dt, long long n_max,
                   double eps, double tol, long long stride, long long cap,
                   double *ts, double *path, long long *n_total,
                   int *converged, double *p_final)
{
    long long m = 1, n_done = 0;
    double p = p0;
    *converged = 0;
    ts[0] = 0.0;
    path[0] = p0;
    for (long long n = 1; n <= n_max; n++) {
        double k1 = drift(c, nc, lam, big_k, price, p, eps);
        double k2 = drift(c, nc, lam, big_k, price, p + 0.5 * dt * k1, eps);
        double k3 = drift(c, nc, lam, big_k, price, p + 0.5 * dt * k2, eps);
        double k4 = drift(c, nc, lam, big_k, price, p + dt * k3, eps);
        double pn = p + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0;
        if (pn < 0.0)
            pn = 0.0;
        else if (pn > 1.0)
            pn = 1.0;
        double dp = pn - p;
        p = pn;
        n_done = n;
        if (n % stride == 0 && m < cap - 1) {
            ts[m] = (double)n * dt;
            path[m] = p;
            m++;
        }
        double rhs = drift(c, nc, lam, big_k, price, p, eps);
        if (fabs(rhs) < tol && fabs(dp) < tol * dt) {
            *converged = 1;
            break;
        }
    }
    if (ts[m - 1] != (double)n_done * dt || path[m - 1] != p) {
        ts[m] = (double)n_done * dt;
        path[m] = p;
        m++;
    }
    *n_total = n_done;
    *p_final = p;
    return m;
}

/* discrete_path at the constant step gain, keeping only the end point. */
double equilibrate(const double *c, long long nc, double lam, double big_k,
                   double price, double p0, double gain, double tol,
                   long long n_max, long long *steps, int *converged)
{
    double idx[2], path[2], p;
    discrete_path(c, nc, lam, big_k, price, p0, n_max, tol, 3, gain, 1, 2,
                  idx, path, steps, converged, &p);
    return p;
}
