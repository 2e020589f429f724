/* The native steppers of the cyclic Lotka-Volterra field, for cycliclv.sim.

   rk4_steps does the operations of sim._rk4_steps entry by entry in the
   same order, so each new state has the same bits: each field entry as
   y_i * (c1_i * y_{j1_i} + c2_i * y_{j2_i}), the stages from x + half * k
   with half = 0.5 * h, and x + sixth * (((k1 + 2 k2) + 2 k3) + k4) with
   sixth = h / 6.0.

   rkf45_block runs the Fehlberg 4(5) loop of sim._rkf45_rows on the
   operations of sim._rkf45_step: each stage and each sum of the tableau
   left to right, as sum() adds the arrays, zero weights kept, so that a
   NaN or infinite stage reaches every sum. sum() starts from int 0 and
   these sums from their first term, which changes only the sign of an
   exact zero sum; x + h * sum and fabs drop it. Then the error scale from
   a >= b ? a : b, an error norm that keeps a NaN as np.max does, and the
   controller min(5.0, max(0.2, 0.9 * enorm ** -0.2)) with Python's
   argument order, so that a NaN norm gives 0.2. The tableau and the
   tolerances come from sim.

   It is built with -ffp-contract=off, so that no a * b + c becomes one
   fused multiply-add, and sim uses a build only after both loops have
   matched the Python kernels bit for bit. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* How a call of rkf45_block ended: its block is full and the run goes on,
   the run reached t_end, the step fell below min_step, or the run reached
   its step limit. sim reads them as _FULL, _DONE, _UNDERFLOW and _LIMIT. */
enum { FULL, DONE, UNDERFLOW, LIMIT };

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

/* Fehlberg 4(5) steps from the state x, n doubles, at time run[0] with the
   trial step run[1], each accepted state written into the next row of the
   row-major (size + 1, n) array xs after row 0 and its time into ts, until
   the block is full, the run ends or it fails. tableau holds the rows of
   the stage matrix A, 15 entries, then the 6 fourth-order weights and the
   6 error weights. state holds the steps accepted so far and the end code
   of the last call: after FULL, the accepted state that did not fit, in x,
   goes into row 1 first. Returns the rows written, and leaves in run the
   time, the next trial step and the last trial's error norm, in state the
   count and the end code, and in x the last accepted state. work holds
   8 n doubles: the six stages, a stage state and the last trial's state. */
int64_t rkf45_block(int64_t n, const int64_t *j1, const double *c1, const int64_t *j2,
                    const double *c2, const double *tableau, double rel_tol, double abs_tol,
                    double min_step, double t_end, int64_t limit, double *run, int64_t *state,
                    double *x, double *ts, double *xs, int64_t size, double *work)
{
    const double *b4 = tableau + 15, *er = tableau + 21;
    double *k = work, *y = work + 6 * n, *z = work + 7 * n;
    double t = run[0], h = run[1], m = run[2];
    int64_t accepted = state[0], row = 0, end = DONE;
    if (state[1] == FULL) {
        row = 1;
        ts[1] = t;
        memcpy(xs + n, x, n * sizeof *x);
    }
    while (end == DONE && t < t_end * (1.0 - 1e-14)) {
        double rest = t_end - t;
        h = rest < h ? rest : h;
        field(n, j1, c1, j2, c2, x, k);
        /* stage s from row s of A, which starts at entry s (s - 1) / 2 */
        for (int64_t s = 1; s < 6; s++) {
            const double *a = tableau + s * (s - 1) / 2;
            for (int64_t i = 0; i < n; i++) {
                double sum = a[0] * k[i];
                for (int64_t q = 1; q < s; q++)
                    sum = sum + a[q] * k[q * n + i];
                y[i] = x[i] + h * sum;
            }
            field(n, j1, c1, j2, c2, y, k + s * n);
        }
        m = 0.0;
        for (int64_t i = 0; i < n; i++) {
            double sum = b4[0] * k[i];
            for (int64_t q = 1; q < 6; q++)
                sum = sum + b4[q] * k[q * n + i];
            z[i] = x[i] + h * sum;
            double e = er[0] * k[i];
            for (int64_t q = 1; q < 6; q++)
                e = e + er[q] * k[q * n + i];
            double a = fabs(x[i]), b = fabs(z[i]);
            double r = fabs(h * e) / (abs_tol + rel_tol * (a >= b ? a : b));
            /* a NaN ratio replaces m, and a NaN m stays, as in np.max */
            m = (m == m && !(r <= m)) ? r : m;
        }
        double factor = 5.0;
        if (!(m == 0.0)) {
            double v = 0.9 * pow(m, -0.2);
            v = v > 0.2 ? v : 0.2;
            factor = v < 5.0 ? v : 5.0;
        }
        if (m <= 1.0) {
            t += h;
            memcpy(x, z, n * sizeof *x);
            if (accepted == limit) {
                end = LIMIT;
            } else if (row == size) {
                end = FULL;
                accepted++;
            } else {
                accepted++;
                row++;
                ts[row] = t;
                memcpy(xs + row * n, x, n * sizeof *x);
            }
        } else if (h * factor < min_step) {
            end = UNDERFLOW;
        }
        h *= factor;
    }
    run[0] = t;
    run[1] = h;
    run[2] = m;
    state[0] = accepted;
    state[1] = end;
    return row;
}
