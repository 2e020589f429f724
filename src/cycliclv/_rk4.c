/* Fixed-step RK4 of the cyclic Lotka-Volterra field, for cycliclv.sim.

   rk4_steps does the operations of sim._rk4_steps entry by entry in the
   same order, so each new state has the same bits: each field entry as
   y_i * (c1_i * y_{j1_i} + c2_i * y_{j2_i}), the stages from x + half * k
   with half = 0.5 * h, and x + sixth * (((k1 + 2 k2) + 2 k3) + k4) with
   sixth = h / 6.0. It is built with -ffp-contract=off, so that no
   a * b + c becomes one fused multiply-add, and sim uses a build only
   after it has matched sim._rk4_steps bit for bit. */

#include <stdint.h>

static void field(int64_t n, const int64_t *j1, const double *c1, const int64_t *j2,
                  const double *c2, const double *y, double *k)
{
    for (int64_t i = 0; i < n; i++)
        k[i] = y[i] * (c1[i] * y[j1[i]] + c2[i] * y[j2[i]]);
}

/* count steps of h from row `row` of the row-major (rows, n) array xs, each
   new state in the next row; work holds 5 n doubles. */
void rk4_steps(int64_t n, const int64_t *j1, const double *c1, const int64_t *j2,
               const double *c2, double *xs, int64_t row, int64_t count, double h,
               double *work)
{
    double *k1 = work, *k2 = work + n, *k3 = work + 2 * n, *k4 = work + 3 * n;
    double *y = work + 4 * n;
    double half = 0.5 * h, sixth = h / 6.0;
    for (double *x = xs + row * n; count > 0; count--, x += n) {
        field(n, j1, c1, j2, c2, x, k1);
        for (int64_t i = 0; i < n; i++)
            y[i] = x[i] + half * k1[i];
        field(n, j1, c1, j2, c2, y, k2);
        for (int64_t i = 0; i < n; i++)
            y[i] = x[i] + half * k2[i];
        field(n, j1, c1, j2, c2, y, k3);
        for (int64_t i = 0; i < n; i++)
            y[i] = x[i] + h * k3[i];
        field(n, j1, c1, j2, c2, y, k4);
        for (int64_t i = 0; i < n; i++)
            x[n + i] = x[i] + sixth * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
    }
}
