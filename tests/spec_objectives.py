"""The twenty benchmark objectives as numpy array formulas: the reference.

``cscf.benchmarks`` evaluates each objective as a formula on a list of Python
floats; each function here is the same formula on a float64 array ``x`` of
shape ``(d,)``, the form the golden records were first written with.
``tests/test_benchmarks.py`` requires the two to agree bit for bit on in-box
points.  ``quartic_noise`` is its core here; the test adds the noise draws.
A change meant to keep the values leaves this file as it is.
"""

import math

import numpy as np


def ackley(x):
    d = x.size
    return (
        -20.0 * math.exp(-0.2 * math.sqrt((x * x).sum() / d))
        - math.exp(np.cos(2.0 * math.pi * x).sum() / d)
        + 20.0
        + math.e
    )


def griewank(x):
    k = np.arange(1, x.size + 1)
    return (x * x).sum() / 4000.0 - np.cos(x / np.sqrt(k)).prod() + 1.0


def floor_step(x):
    return 30.0 + np.floor(x).sum()


def log_sines(x):
    # libm's log: numpy's AVX-512 log loop differs from it in the last bit
    return np.sin(10.0 * np.array([math.log(v) for v in x.tolist()])).sum()


def quintic(x):
    return (((((x - 3.0) * x + 4.0) * x + 2.0) * x - 10.0) * x - 4.0).sum()


def sphere(x):
    return (x * x).sum()


def schwefel_double_sum(x):
    return (x.cumsum() ** 2).sum()


def step(x):
    return (np.floor(x + 0.5) ** 2).sum()


def neg_x_sin_sqrt(x):
    return (-x * np.sin(np.sqrt(np.abs(x)))).sum()


def rastrigin(x):
    return (x * x - 10.0 * np.cos(2.0 * math.pi * x) + 10.0).sum()


def camel(x):
    x1, x2 = x
    return 4.0 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4.0 * x2**2 - 4.0 * x2**4


def goldstein_price(x):
    x1, x2 = x
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def shekel(x):
    diff = x[None, :] - _SHEKEL_A
    return -(1.0 / ((diff * diff).sum(axis=1) + _SHEKEL_C)).sum()


def quartic_core(x):
    k = np.arange(1, x.size + 1)
    return (k * (x * x) ** 2).sum()


def coordinate_max(x):
    return x.max()


def rosenbrock(x):
    return (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum()


def unit_griewank(x):
    k = np.arange(1, 7)
    return (x * x).sum() / 25.0 - np.cos(x[0] / np.sqrt(k)).prod() + 1.0


def u_penalty(x, a, k):
    return (k * (np.maximum(np.abs(x) - a, 0.0) ** 2) ** 2).sum()


def penalized1(x):
    d = x.size
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * math.sin(math.pi * y[0]) ** 2
        + ((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * y[1:]) ** 2)).sum()
        + (y[-1] - 1.0) ** 2
    )
    return math.pi / d * core + u_penalty(x, 10.0, 100.0)


def penalized2(x):
    core = (
        math.sin(3.0 * math.pi * x[0]) ** 2
        + ((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * math.pi * x[1:]) ** 2)).sum()
        + (x[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * x[-1]) ** 2)
    )
    return 0.1 * core + u_penalty(x, 5.0, 100.0)


# alias -> formula, in table order
OBJECTIVES = {
    "ackley": ackley,
    "griewank": griewank,
    "floor_step": floor_step,
    "log_sines": log_sines,
    "quintic": quintic,
    "sphere": sphere,
    "schwefel_double_sum": schwefel_double_sum,
    "step": step,
    "schwefel_small": neg_x_sin_sqrt,
    "rastrigin": rastrigin,
    "camel": camel,
    "goldstein_price": goldstein_price,
    "shekel": shekel,
    "quartic_noise": quartic_core,
    "schwefel": neg_x_sin_sqrt,
    "coordinate_max": coordinate_max,
    "rosenbrock": rosenbrock,
    "unit_griewank": unit_griewank,
    "penalized1": penalized1,
    "penalized2": penalized2,
}
