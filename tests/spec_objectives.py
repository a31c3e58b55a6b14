"""The twenty benchmark objectives as numpy array formulas: the reference.

``cscf.benchmarks`` evaluates each objective as a formula on a list of Python
floats; each function here is the same formula on a float64 array ``x`` of
shape ``(d,)``, its terms summed with ``math.fsum`` as the suite sums them
(shekel's four squares per row and the running sums of
``schwefel_double_sum`` stay numpy's left-to-right adds).
``tests/test_benchmarks.py`` requires the two to agree bit for bit on in-box
points.  ``quartic_noise`` is its core here; the test adds the noise draws.
A change to a formula's terms or to how they are summed changes this file
with it; a change meant to keep the values leaves it as it is.
"""

import math

import numpy as np


def ackley(x):
    d = x.size
    return (
        -20.0 * math.exp(-0.2 * math.sqrt(math.fsum(x * x) / d))
        - math.exp(math.fsum(np.cos(2.0 * math.pi * x)) / d)
        + 20.0
        + math.e
    )


def griewank(x):
    k = np.arange(1, x.size + 1)
    return math.fsum(x * x) / 4000.0 - np.cos(x / np.sqrt(k)).prod() + 1.0


def floor_step(x):
    return 30.0 + math.fsum(np.floor(x))


def log_sines(x):
    # libm's log: numpy's AVX-512 log loop differs from it in the last bit
    return math.fsum(np.sin(10.0 * np.array([math.log(v) for v in x.tolist()])))


def quintic(x):
    return math.fsum(((((x - 3.0) * x + 4.0) * x + 2.0) * x - 10.0) * x - 4.0)


def sphere(x):
    return math.fsum(x * x)


def schwefel_double_sum(x):
    return math.fsum(x.cumsum() ** 2)


def step(x):
    return math.fsum(np.floor(x + 0.5) ** 2)


def neg_x_sin_sqrt(x):
    return math.fsum(-x * np.sin(np.sqrt(np.abs(x))))


def rastrigin(x):
    return math.fsum(x * x - 10.0 * np.cos(2.0 * math.pi * x) + 10.0)


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
    return -math.fsum(1.0 / ((diff * diff).sum(axis=1) + _SHEKEL_C))


def quartic_core(x):
    k = np.arange(1, x.size + 1)
    return math.fsum(k * (x * x) ** 2)


def coordinate_max(x):
    return x.max()


def rosenbrock(x):
    return math.fsum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2)


def unit_griewank(x):
    k = np.arange(1, 7)
    return math.fsum(x * x) / 25.0 - np.cos(x[0] / np.sqrt(k)).prod() + 1.0


def u_penalty(x, a, k):
    return math.fsum(k * (np.maximum(np.abs(x) - a, 0.0) ** 2) ** 2)


def penalized1(x):
    d = x.size
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * math.sin(math.pi * y[0]) ** 2
        + math.fsum((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * y[1:]) ** 2))
        + (y[-1] - 1.0) ** 2
    )
    return math.pi / d * core + u_penalty(x, 10.0, 100.0)


def penalized2(x):
    core = (
        math.sin(3.0 * math.pi * x[0]) ** 2
        + math.fsum((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * math.pi * x[1:]) ** 2))
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
