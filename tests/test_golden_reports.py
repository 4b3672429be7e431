"""Report bodies pinned byte for byte.

Each command runs in process and the sha256 of its exit code and stdout is
compared with a digest recorded from an earlier version of the package. A
refactor that keeps every reported value passes unchanged; one that moves a
value by a single ulp, reorders a key or changes a seeded stream fails here.
When a value changes on purpose, record the new digest together with the
reason in the change log.
"""

import hashlib
import json

import numpy as np
import pytest

from summability import FormTensor, ScalarField, SpaceSpec, TestFamily, VectorSeq
from summability.cli import main


def _sup_form():
    rng = np.random.default_rng(11)
    return FormTensor.on_linf(rng.standard_normal((4, 3)))


def _lp_form():
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return FormTensor(coeffs, (SpaceSpec.lp(3, "4/3"), SpaceSpec.lp(3, 2)),
                      ScalarField.COMPLEX)


def _family(form):
    rng = np.random.default_rng(13)
    return TestFamily(tuple(VectorSeq(rng.standard_normal((5, d.dim)), d)
                            for d in form.domains))


COMMANDS = {
    "littlewood": ["verify", "littlewood", "--random", "6", "--m", "5", "--seed", "3"],
    "general": ["verify", "general", "--random", "5", "--m", "4", "--field",
                "complex", "--seed", "4"],
    "bh": ["verify", "bh", "--random", "4", "--order", "3", "--m", "3", "--seed", "5"],
    "extended": ["verify", "extended", "--random", "5", "--m", "4", "--seed", "6"],
    "dv": ["verify", "dv", "--random", "3", "--order", "2", "--m", "4", "--seed", "7"],
    "inclusion": ["verify", "inclusion", "--random", "5", "--seed", "8"],
    "dv-files": ["verify", "dv", "{sup}", "{family}"],
    "search-sup": ["search", "{sup}", "--p", "1", "--qs", "2,2", "--budget", "40",
                   "--seed", "9"],
    "search-lp": ["search", "{lp}", "--p", "4/3", "--qs", "2,1", "--budget", "6",
                  "--jmax", "4", "--seed", "10"],
    "experiment": ["experiment", "--p", "4/3", "--q", "2", "--m", "3", "--count", "2",
                   "--budget", "6", "--jmax", "4", "--seed", "2"],
    "demos": ["demos"],
}

DIGESTS = {
    "bh": "7559431661ae3b16ae28e2279d5f1255d257c8d13924b75c975582facf96e72b",
    "demos": "3b855d6f2f43cb07f463512f00809957539a93de67cdd55a6a36fcef916abc54",
    "dv": "1560372be5c82e15df843cde46a56d60e3496ac656378c59907b4490bb408e61",
    "dv-files": "48a3fab700072c1f7c0ad076d040e95688e7cfa88f39e0a833a0851ef9f5becc",
    "experiment": "7b25bfbbfe624b0da0619be95454a1fceee837f8663aa3d5b77589c2fe400cf6",
    "extended": "e5ef2252ee567c01a840dd9b268316834a2cc03a2dfcb5207a77b39ba5edb96c",
    "general": "2d2c0cf9d098b9b295ec7b45515aaea7c3b6cac64af01c86879ef36a7c96f6e3",
    "inclusion": "05c8e1a4409b249c5d6700692db9c034e6a27737acb99a37dd784cf357729e2c",
    "littlewood": "e5d6adc2756a090d8ee5c9ef8db4e269a87ef083893450cfd502223f81c69867",
    "search-lp": "d92ebdebcae65092378afc60e12def87e875f82a0bc085342ac7f80ced3fbe1a",
    "search-sup": "7c0cb44bba6c84dd25eea2fada434eef1e6b056503f64ad98e877a9038e4a9a7",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sup = _sup_form()
    docs = {"sup": sup.to_json(), "lp": _lp_form().to_json(),
            "family": _family(sup).to_json()}
    paths = {}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_digest(name, files, capsys):
    argv = [arg.format(**files) for arg in COMMANDS[name]]
    code = main(argv)
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == DIGESTS[name]
