"""The golden records' dependence on the host (see ``tests/test_golden.py``), pinned.

Each case emulates another host through environment variables that act
only on a child process, runs the golden groups there, and requires exactly
the groups that fail today.  A group that newly fails is a new host
dependence; one that newly passes is progress, and the table shrinks.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
EMULATION = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE", "GLIBC_TUNABLES")

HOSTS = {
    # numpy without AVX-512 and OpenBLAS's Haswell kernel, as on a Zen 3 CPU
    "avx2-only": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
                   "OPENBLAS_CORETYPE": "Haswell"},
                  set()),
    # glibc without its AVX2 and FMA variants, as on a pre-2013 CPU
    "no-fma": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX512DQ"},
               {"maps", "objectives"}),
}


@pytest.mark.skipif(not __cpu_features__.get("FMA3"),
                    reason="the golden records were written with glibc's FMA variants")
@pytest.mark.parametrize("host", HOSTS)
def test_golden_failures_on_an_emulated_host(host):
    settings, expected = HOSTS[host]
    env = {k: v for k, v in os.environ.items() if k not in EMULATION}
    src = str(ROOT / "src")
    path = env.get("PYTHONPATH")
    env.update(settings, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    # only the golden groups, so this test cannot start itself again
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_records_unchanged"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    failed = set(re.findall(r"^FAILED \S+::test_records_unchanged\[([^\]]+)\]",
                            done.stdout, re.MULTILINE))
    assert done.returncode == (1 if failed else 0), done.stdout[-2000:] + done.stderr[-2000:]
    assert failed == expected
