/* The native code of cycliclv.sim: the steppers of the cyclic Lotka-Volterra
   field, the pass over each block of states, and the CSV formatter. Each
   function that is not static has a Python reference of the same name in
   cycliclv._reference, which takes the same parameters in the same order,
   a numpy array for each pointer, and writes the same outputs; the comment
   on the function states the order of operations that gives the
   reference's bits or bytes. sim calls a build and the references alike,
   and uses a build only after a probe of each function has matched its
   reference (_reference._probe).

   It is built with -ffp-contract=off, so that no a * b + c becomes one
   fused multiply-add. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* How a call of rkf45_block ended: its block is full and the run goes on,
   the run reached t_end, the step fell below min_step, or the run reached
   its step limit. sim reads them as _FULL, _DONE, _UNDERFLOW and _LIMIT. */
enum { FULL, DONE, UNDERFLOW, LIMIT };
/* The field y * (A y) into k, each entry as y_i * (c1_i * y_{j1_i} +
   c2_i * y_{j2_i}), as _reference._field computes it: a row's two terms stay
   two products, as summing them changes n = 2's bits. */
static void field(int64_t n, const int64_t *j1, const double *c1, const int64_t *j2,
                  const double *c2, const double *y, double *k)
{
    for (int64_t i = 0; i < n; i++)
        k[i] = y[i] * (c1[i] * y[j1[i]] + c2[i] * y[j2[i]]);
}

/* The RK4 loop of _reference.rk4_steps, with its operations entry by entry in
   the same order, so that each new state has the same bits: count steps
   of h from row `row` of the row-major (rows, n) array xs, each new state
   in the next row, the stages from x + half * k with half = 0.5 * h and
   then from x + h * k3, and the state x + sixth * (((k1 + 2 k2) + 2 k3) +
   k4) with sixth = h / 6.0. work holds 5 n doubles. */
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

/* The Fehlberg 4(5) loop of _reference.rkf45_block, one block a call, on
   the operations of _reference._rkf45_step: each stage and each sum of the
   tableau left to right, as sum() adds the arrays, zero weights kept, so
   that a NaN or infinite stage reaches every sum. sum() starts from int 0 and
   these sums from their first term, which changes only the sign of an
   exact zero sum; x + h * sum and fabs drop it. Then the error scale from
   a >= b ? a : b, an error norm that keeps a NaN as np.max does, and the
   controller min(5.0, max(0.2, 0.9 * enorm ** -0.2)) with Python's
   argument order, so that a NaN norm gives 0.2. The tableau and the
   tolerances come from sim, the tableau as sim._FEHLBERG.

   It steps from the state in row 0 of the row-major (size + 1, n) array
   xs, at time run[0] with the trial step run[1], as rk4_steps steps from
   its row: each accepted state goes into the next row and its time into
   ts, until the block is full, the run ends or it fails. A full block
   ends the call before its next trial, so a call resumes from run,
   state[0] and row 0 alone, which sim._screened sets to the last row
   written, and after FULL the accepted count is the rows written.
   tableau holds the rows of the stage matrix A, 15 entries, then the 6
   fourth-order weights and the 6 error weights. Returns the rows written,
   and leaves in run the time, the next trial step and the last trial's
   error norm, and in state the steps accepted so far and the end code.
   work holds 8 n doubles: the six stages, a stage state and the last
   trial's state. */
int64_t rkf45_block(int64_t n, const int64_t *j1, const double *c1, const int64_t *j2,
                    const double *c2, const double *tableau, double rel_tol, double abs_tol,
                    double min_step, double t_end, int64_t limit, double *run, int64_t *state,
                    double *ts, double *xs, int64_t size, double *work)
{
    const double *b4 = tableau + 15, *er = tableau + 21;
    double *k = work, *y = work + 6 * n, *z = work + 7 * n, *x = xs;
    double t = run[0], h = run[1], m = run[2];
    int64_t accepted = state[0], row = 0, end = DONE;
    while (end == DONE && t < t_end * (1.0 - 1e-14)) {
        if (row == size) {
            end = FULL;
            break;
        }
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
            if (accepted == limit) {
                end = LIMIT;
            } else {
                accepted++;
                row++;
                ts[row] = t;
                x += n;
                memcpy(x, z, n * sizeof *x);
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

/* The pass of sim._pass over a block of rows states of n coordinates,
   the row-major array xs, as _reference.block_pass does it on numpy.
   values, row-major (rows, 1 + m), comes holding each row's H1 and each
   monomial's s = lam . log x, as numpy computes them; each s becomes its
   monomial's value, exp(s), the libm exp that Python's math.exp calls, or
   NaN when it lies outside [lo, hi], and each value's drift,
   fabs(v - start) / start, goes into drift. A row fails when a coordinate
   is not finite or lies below floor, or a drift is not finite; which test
   failed is sim._failure's to say. The pass stops at the first row that
   fails, with its values and drifts written, and folds the drifts of each
   row before it into max_drift, as np.maximum folds them. Returns that
   row, or rows when none fails. */
int64_t block_pass(int64_t rows, int64_t n, int64_t m, const double *xs, double *values,
                   double *drift, const double *start, double *max_drift, double lo, double hi,
                   double floor)
{
    for (int64_t r = 0; r < rows; r++, xs += n, values += m + 1, drift += m + 1) {
        int fails = 0;
        for (int64_t i = 0; i < n; i++)
            fails |= !isfinite(xs[i]) || xs[i] < floor;
        for (int64_t j = 0; j <= m; j++) {
            double v = values[j];
            if (j)
                values[j] = v = v < lo || v > hi ? NAN : exp(v);
            drift[j] = fabs(v - start[j]) / start[j];
            fails |= !isfinite(drift[j]);
        }
        if (fails)
            return r;
        for (int64_t j = 0; j <= m; j++)
            max_drift[j] = drift[j] > max_drift[j] ? drift[j] : max_drift[j];
    }
    return rows;
}

/* 10^17, the bound of a 17-digit significand, and the most bytes
   csv_rows writes for one value, its separator included:
   "-1.2345678901234567e-308" and a comma. */
#define TEN17 100000000000000000ULL
#define VALUE_BYTES 25

/* Where the compiler has no 128-bit integers, every value but the zeros,
   nan and inf goes to snprintf. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 5^0 to 5^27, the powers of five below 2^64 */
static const uint64_t POW5[28] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125, 244140625,
    1220703125, 6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL
};

/* The two digits of 0 to 99, the pair of i at PAIRS + 2 i */
static const char PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 17 significant digits of m 2^e at decimal exponent k: m 2^e 10^(16 - k)
   rounded half to even, exactly, in 128-bit integers, as m 5^q shifted
   right by s = -(e + q) bits, q = 16 - k. m 5^q is one 64 by 64 bit product
   up to q = 27, as 5^27 < 2^64. Returns 0 where that is no right shift,
   from m 2^e = 2^51 up, or needs more than 128 bits, at every k below -16. */
static int digits17(uint64_t m, int e, int k, u128 *d)
{
    int q = 16 - k, s = -(e + q);
    u128 n, low, half;
    if (q < 0 || q > 54 || s <= 0 || s > 127)
        return 0;
    if (q <= 27)
        n = (u128)m * POW5[q];
    else if (__builtin_mul_overflow((u128)m, (u128)POW5[27] * POW5[q - 27], &n))
        return 0;
    *d = n >> s;
    low = n & (((u128)1 << s) - 1);
    half = (u128)1 << (s - 1);
    /* no branch: about half of all values round up, unpredictably */
    *d += (low > half) | ((low == half) & (int)(*d & 1));
    return 1;
}

/* Writes the 17-digit significand d at decimal exponent k, from -16 to 15
   as digits17 gives it, as '%.17g' lays it out: d.ddde-kk below -4, else
   fixed notation, and no trailing zeros or bare point. The digits come as
   a 9-digit half and an 8-digit half of d, two at a time from PAIRS.
   Returns the end of what it wrote. */
static char *put_digits(char *p, uint64_t d, int k)
{
    char g[17];
    int nd = 17;
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    g[0] = (char)('0' + hi / 100000000);
    hi %= 100000000;
    for (int i = 7; i > 0; i -= 2, hi /= 100, lo /= 100) {
        memcpy(g + i, PAIRS + 2 * (hi % 100), 2);
        memcpy(g + 8 + i, PAIRS + 2 * (lo % 100), 2);
    }
    while (g[nd - 1] == '0')
        nd--;
    if (k < -4) {
        *p++ = g[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, g + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = '-';
        *p++ = (char)('0' + -k / 10);
        *p++ = (char)('0' + -k % 10);
    } else if (k < 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -k - 1);
        p += -k - 1;
        memcpy(p, g, nd);
        p += nd;
    } else if (nd <= k + 1) {
        memcpy(p, g, nd);
        memset(p + nd, '0', k + 1 - nd);
        p += k + 1;
    } else {
        memcpy(p, g, k + 1);
        p[k + 1] = '.';
        memcpy(p + k + 2, g + k + 1, nd - k - 1);
        p += nd + 1;
    }
    return p;
}
#endif

/* Writes v as Python's '%.17g' % v: nan, inf and -inf, -0 for -0.0, and
   correctly rounded digits, ties to even. '%.17g' writes the digits17 of
   the lowest exponent k at which they stay below 10^17. For a normal
   double from 2^-53 up to 2^51, the range that runs write, k starts below
   floor(log10 v), at floor(E log10 2) - 1 for 2^E <= v < 2^(E + 1), and
   steps up: at most three times, as floor(log10 v) is at most
   floor(E log10 2) + 1, and a rounding carry to 10^17 leaves exactly 10^16
   one exponent up. floor(E log10 2) is E * 78913 / 2^18 rounded down,
   exact for every E of a double; 2^28, 2^10 times 2^18, is added before
   the division and 2^10 taken off after it, so that C's division, which
   rounds toward zero, divides a positive number. Every value that
   digits17 refuses goes to snprintf, whose decimal point, the locale's,
   becomes '.'. Returns the end of what it wrote: at most 24 bytes. */
static char *put_value(char *p, double v)
{
    uint64_t bits;
    char text[48];
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    v = fabs(v);
    if (isinf(v)) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (v == 0.0) {
        *p = '0';
        return p + 1;
    }
#ifdef __SIZEOF_INT128__
    /* a subnormal, exponent field 0, has no implicit bit */
    if (bits >> 52 & 0x7ff) {
        uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
        int e = (int)(bits >> 52 & 0x7ff) - 1075;
        int k = ((e + 52) * 78913 + (1 << 28)) / (1 << 18) - (1 << 10) - 1;
        u128 d = TEN17;
        while (d >= TEN17)
            if (!digits17(m, e, ++k, &d))
                goto libc;
        return put_digits(p, (uint64_t)d, k);
    }
libc:
#endif
    snprintf(text, sizeof text, "%.17g", v);
    /* text starts with a digit, and each byte of the point follows one */
    for (const char *c = text; *c; c++) {
        if ((*c >= '0' && *c <= '9') || *c == 'e' || *c == '+' || *c == '-')
            *p++ = *c;
        else if (p[-1] != '.')
            *p++ = '.';
    }
    return p;
}

/* Writes the row-major (rows, cols) array block into out as CSV lines,
   each value as put_value writes it, Python's '%.17g' % value, values
   separated by ',' and each line ended by '\n'. Returns the bytes
   written, or -1, having written nothing, when capacity bytes do not hold
   VALUE_BYTES for each value, or for each empty line. */
int64_t csv_rows(const double *block, int64_t rows, int64_t cols, char *out, int64_t capacity)
{
    char *p = out;
    if (rows < 0 || cols < 0 || (rows && capacity / VALUE_BYTES / rows < (cols ? cols : 1)))
        return -1;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            if (c)
                *p++ = ',';
            p = put_value(p, *block++);
        }
        *p++ = '\n';
    }
    return p - out;
}
