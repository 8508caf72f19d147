/* Compiled kernels: the hot inner loops of stream generation and of the
 * steady-state solve.
 *
 * Mirrors _pykernels.py statement for statement; both backends must produce
 * bit-identical results for the same inputs. log2 is the libm function that
 * CPython's math.log2 calls, and setup.py builds with -ffp-contract=off so
 * that p0 * x + p1 is rounded twice, as in Python, never fused into an FMA.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NUDGE 1e-12
#define EDGE 1e-15

/* array arguments in call order: the map spec, the noise, the output */
enum { KINDS, BOUNDS, P0, P1, P2, NOISE, OUT, N_ARRAYS };

static const char *const ARRAY_NAMES[N_ARRAYS] = {
    "kinds", "bounds", "p0", "p1", "p2", "noise", "out"};

static double
advance(double x, const signed char *kinds, const double *bounds,
        const double *p0, const double *p1, const double *p2,
        Py_ssize_t nb, double eta)
{
    /* nudge off breakpoints, locate branch, apply formula, add noise, clip */
    Py_ssize_t j, k;
    double d, y;
    for (k = 0; k < nb + 1; k++) {
        d = x - bounds[k];
        if (-NUDGE < d && d < NUDGE) {
            x = bounds[k] + NUDGE < 1.0 ? bounds[k] + NUDGE : bounds[k] - NUDGE;
            break;
        }
    }
    j = nb - 1;
    for (k = 0; k < nb - 1; k++) {
        if (x < bounds[k + 1]) {
            j = k;
            break;
        }
    }
    if (kinds[j] == 0)
        y = p0[j] * x + p1[j];
    else
        y = log2(p0[j] * x + p1[j]) - p2[j];
    y = y + eta;
    if (y < EDGE)
        y = EDGE;
    else if (y > 1.0 - EDGE)
        y = 1.0 - EDGE;
    return y;
}

static void
release(Py_buffer *views, int count)
{
    while (--count >= 0)
        PyBuffer_Release(&views[count]);
}

/* Take ``count`` arrays as 1-d C-contiguous buffers of the given formats; the
 * last one is the output and must be writable. On failure no buffer is held
 * and an exception is set. */
static int
acquire(PyObject *const *objs, Py_buffer *views, int count,
        const char *const *formats, const char *const *names)
{
    int i;
    for (i = 0; i < count; i++) {
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                    | (i == count - 1 ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(objs[i], &views[i], flags) < 0) {
            release(views, i);
            return -1;
        }
        if (views[i].ndim != 1 || strcmp(views[i].format, formats[i]) != 0) {
            PyErr_Format(PyExc_TypeError,
                         "%s must be a 1-d array of format '%s', got %d-d '%s'",
                         names[i], formats[i], views[i].ndim, views[i].format);
            release(views, i + 1);
            return -1;
        }
    }
    return 0;
}

/* Take the seven trajectory arrays and check their lengths against
 * len(kinds); ``out_format`` is "B" for bits, "d" for states. */
static int
acquire_trajectory(PyObject *const *objs, Py_buffer *views, const char *out_format)
{
    const char *formats[N_ARRAYS] = {"b", "d", "d", "d", "d", "d", out_format};
    Py_ssize_t nb;
    const char *msg = NULL;
    if (acquire(objs, views, N_ARRAYS, formats, ARRAY_NAMES) < 0)
        return -1;
    nb = views[KINDS].shape[0];
    if (nb < 1)
        msg = "kinds must not be empty";
    else if (views[BOUNDS].shape[0] != nb + 1)
        msg = "bounds must have len(kinds) + 1 entries";
    else if (views[P0].shape[0] != nb || views[P1].shape[0] != nb
             || views[P2].shape[0] != nb)
        msg = "p0, p1 and p2 must have len(kinds) entries";
    else if (views[NOISE].shape[0] < views[OUT].shape[0])
        msg = "noise is shorter than out";
    if (msg) {
        PyErr_SetString(PyExc_ValueError, msg);
        release(views, N_ARRAYS);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(bits_from_trajectory_doc,
"bits_from_trajectory(kinds, bounds, p0, p1, p2, threshold, x0, noise, out)\n--\n\n"
"Fill ``out`` with threshold bits along the trajectory; return final state.");

static PyObject *
bits_from_trajectory(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"kinds", "bounds", "p0", "p1", "p2", "threshold",
                             "x0", "noise", "out", NULL};
    PyObject *objs[N_ARRAYS];
    Py_buffer v[N_ARRAYS];
    double threshold, x;
    Py_ssize_t i, n;
    unsigned char *out;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOddOO:bits_from_trajectory",
                                     kwlist, &objs[KINDS], &objs[BOUNDS], &objs[P0],
                                     &objs[P1], &objs[P2], &threshold, &x,
                                     &objs[NOISE], &objs[OUT])
        || acquire_trajectory(objs, v, "B") < 0)
        return NULL;
    n = v[OUT].shape[0];
    out = v[OUT].buf;
    for (i = 0; i < n; i++) {
        out[i] = x >= threshold ? 1 : 0;
        x = advance(x, v[KINDS].buf, v[BOUNDS].buf, v[P0].buf, v[P1].buf, v[P2].buf,
                    v[KINDS].shape[0], ((const double *)v[NOISE].buf)[i]);
    }
    release(v, N_ARRAYS);
    return PyFloat_FromDouble(x);
}

PyDoc_STRVAR(trajectory_doc,
"trajectory(kinds, bounds, p0, p1, p2, x0, noise, out)\n--\n\n"
"Fill ``out`` with x_1..x_n; return the final state (== out[-1]).");

static PyObject *
trajectory(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"kinds", "bounds", "p0", "p1", "p2", "x0", "noise",
                             "out", NULL};
    PyObject *objs[N_ARRAYS];
    Py_buffer v[N_ARRAYS];
    double x;
    Py_ssize_t i, n;
    double *out;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOdOO:trajectory", kwlist,
                                     &objs[KINDS], &objs[BOUNDS], &objs[P0],
                                     &objs[P1], &objs[P2], &x, &objs[NOISE],
                                     &objs[OUT])
        || acquire_trajectory(objs, v, "d") < 0)
        return NULL;
    n = v[OUT].shape[0];
    out = v[OUT].buf;
    for (i = 0; i < n; i++) {
        x = advance(x, v[KINDS].buf, v[BOUNDS].buf, v[P0].buf, v[P1].buf, v[P2].buf,
                    v[KINDS].shape[0], ((const double *)v[NOISE].buf)[i]);
        out[i] = x;
    }
    release(v, N_ARRAYS);
    return PyFloat_FromDouble(x);
}

/* csr_matvec arguments in call order */
enum { INDPTR, INDICES, DATA, X, Y, N_CSR };

static const char *const CSR_NAMES[N_CSR] = {"indptr", "indices", "data", "x", "out"};

PyDoc_STRVAR(csr_matvec_doc,
"csr_matvec(indptr, indices, data, x, out)\n--\n\n"
"Fill ``out`` with A @ x for the square CSR matrix A (int32 indptr and\n"
"indices), each row summed in stored order.");

static PyObject *
csr_matvec(PyObject *self, PyObject *args)
{
    static const char *const formats[N_CSR] = {"i", "i", "d", "d", "d"};
    PyObject *objs[N_CSR];
    Py_buffer v[N_CSR];
    const int32_t *indptr, *indices;
    const double *data, *x;
    double *out, s;
    Py_ssize_t i, k, lo, hi, n, nnz;
    uint32_t j, un;
    const char *msg = NULL;
    if (!PyArg_ParseTuple(args, "OOOOO:csr_matvec", &objs[INDPTR], &objs[INDICES],
                          &objs[DATA], &objs[X], &objs[Y])
        || acquire(objs, v, N_CSR, formats, CSR_NAMES) < 0)
        return NULL;
    indptr = v[INDPTR].buf;
    indices = v[INDICES].buf;
    data = v[DATA].buf;
    x = v[X].buf;
    out = v[Y].buf;
    n = v[Y].shape[0];
    nnz = v[DATA].shape[0];
    un = (uint32_t)n;
    if (v[INDPTR].shape[0] != n + 1 || v[X].shape[0] != n)
        msg = "indptr, x and out must have n + 1, n and n entries";
    else if (n > INT32_MAX)
        msg = "int32 indices cannot address more than 2**31 - 1 columns";
    else if (v[INDICES].shape[0] != nnz)
        msg = "indices and data must have the same length";
    else if (indptr[0] != 0 || indptr[n] != nnz)
        msg = "indptr must run from 0 to len(data)";
    for (i = 0, hi = 0; i < n && !msg; i++) {
        lo = hi;
        hi = indptr[i + 1];
        if (hi < lo || hi > nnz)
            goto bad_indptr;
        s = 0.0;
        for (k = lo; k < hi; k++) {
            j = (uint32_t)indices[k];  /* a negative index wraps to a large one */
            if (j >= un)
                goto bad_index;
            s += data[k] * x[j];
        }
        out[i] = s;
    }
    goto done;
bad_indptr:
    msg = "indptr must be non-decreasing";
    goto done;
bad_index:
    msg = "column index out of range";
done:
    release(v, N_CSR);
    if (msg) {
        PyErr_SetString(PyExc_ValueError, msg);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"bits_from_trajectory", (PyCFunction)(void (*)(void))bits_from_trajectory,
     METH_VARARGS | METH_KEYWORDS, bits_from_trajectory_doc},
    {"trajectory", (PyCFunction)(void (*)(void))trajectory,
     METH_VARARGS | METH_KEYWORDS, trajectory_doc},
    {"csr_matvec", csr_matvec, METH_VARARGS, csr_matvec_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fastkernels",
    "Compiled kernels: trajectories, bit streams and the CSR matrix-vector product.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__fastkernels(void)
{
    return PyModule_Create(&module);
}
