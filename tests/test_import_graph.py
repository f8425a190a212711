"""Each run kind loads only its own engine: `config` and `experiments` import
no engine at load, and validating a config imports just the engine helpers
its kind's checks read. Each case runs in a fresh interpreter, since this
test process has imported every module already."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import riscomp

# The riscomp modules loaded so far, and numpy.random if it is.
_LOADED = ('sorted(name.removeprefix("riscomp.") for name in sys.modules '
           'if name.startswith("riscomp.") or name == "numpy.random")')

# Validates each preset named on the command line in turn, noting after each
# what is loaded.
_VALIDATE = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
import riscomp.config, riscomp.experiments
loaded = []
for fig in sys.argv[2:]:
    riscomp.config.from_mapping(riscomp.experiments.preset(fig))
    loaded.append({_LOADED})
print(json.dumps(loaded))
"""

_SRC = str(Path(riscomp.__file__).resolve().parent.parent)
_BASE = {"channel", "config", "experiments", "scenarios", "units"}
_COORDINATED = _BASE | {"analysis", "stats", "special", "quadrature"}

# Presets in the order validated, and the modules loaded after each.
_FAMILIES = {
    "coordinated": [
        # exhaustive-star draws no trials; the trial budget of every other
        # coordinated kind is montecarlo.run_bytes, and pdf-validation's
        # trial minimum montecarlo.KS_MIN_SAMPLES.
        ("fig3.5", _COORDINATED),
        *((fig, _COORDINATED | {"montecarlo", "kernels"})
          for fig in ("fig3.3", "fig3.4", "fig3.2")),
    ],
    "multicell": [(fig, _BASE | {"energy", "kernels", "montecarlo", "ris"})
                  for fig in ("fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6")],
    "drl": [(fig, _BASE | {"aerial", "moppo", "ris"}) for fig in ("fig5.2", "fig5.2-tiny")],
}


def _loaded_after(code: str, *args: str) -> list:
    proc = subprocess.run([sys.executable, "-c", code, _SRC, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_validating_a_family_loads_only_its_engine(family):
    figs, expected = zip(*_FAMILIES[family])
    assert _loaded_after(_VALIDATE, *figs) == [sorted(modules) for modules in expected]


def test_the_cli_loads_no_engine_and_no_generator():
    code = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
import riscomp.cli
print(json.dumps({_LOADED}))
"""
    assert _loaded_after(code) == sorted(_BASE | {"cli"})
