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


def _sup3_form():
    rng = np.random.default_rng(14)
    shape = (3, 2, 3)
    return FormTensor.on_linf(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                              ScalarField.COMPLEX)


def _l1l2_form():
    rng = np.random.default_rng(15)
    return FormTensor(rng.standard_normal((3, 4)), (SpaceSpec.lp(3, 1), SpaceSpec.lp(4, 2)))


def _sup_complex_form():
    rng = np.random.default_rng(18)
    shape = (4, 3)
    return FormTensor.on_linf(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                              ScalarField.COMPLEX)


def _beta():
    rng = np.random.default_rng(19)
    shape = (2, 4)
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {"field": "complex", "entries": np.stack([entries.real, entries.imag], -1).tolist()}


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
    "littlewood-files": ["verify", "littlewood", "{sup}"],
    "general-files": ["verify", "general", "{sup}"],
    "bh-files": ["verify", "bh", "{sup3}"],
    "extended-files": ["verify", "extended", "{sup_complex}", "--beta", "{beta}"],
    "almost-files": ["verify", "almost", "{sup}", "{family}"],
    "almost-curry-files": ["verify", "almost", "{sup}", "{head}", "--curry", "1"],
    "search-sup": ["search", "{sup}", "--p", "1", "--qs", "2,2", "--budget", "40",
                   "--seed", "9"],
    "search-lp": ["search", "{lp}", "--p", "4/3", "--qs", "2,1", "--budget", "6",
                  "--jmax", "4", "--seed", "10"],
    "search-sup3-complex": ["search", "{sup3}", "--p", "2", "--qs", "2,2,2",
                            "--budget", "37", "--jmax", "5", "--seed", "16"],
    "search-l1l2": ["search", "{l1l2}", "--p", "1", "--qs", "2,1", "--budget", "24",
                    "--jmax", "6", "--seed", "17"],
    "experiment": ["experiment", "--p", "4/3", "--q", "2", "--m", "3", "--count", "2",
                   "--budget", "6", "--jmax", "4", "--seed", "2"],
    "demos": ["demos"],
}

DIGESTS = {
    "almost-curry-files": "7b68bb6c06e69af1cf7cd79445630b9c46c3ea774209a6cf330b4fbe695483b6",
    "almost-files": "7525954ed2b9ac29975fdcda6e9eca5efdcc22e6f48c8e5383cb020e3e7fdbdd",
    "bh": "7559431661ae3b16ae28e2279d5f1255d257c8d13924b75c975582facf96e72b",
    "bh-files": "f26d8ec7a02b6fb2eb5cd11f85c594019b832ec2722208a1ed25687cc5c3139e",
    "demos": "6949653ee285a554f7ae91b257e8cae73ab72315b6c52831e87bb47959a89601",
    "dv": "1560372be5c82e15df843cde46a56d60e3496ac656378c59907b4490bb408e61",
    "dv-files": "48a3fab700072c1f7c0ad076d040e95688e7cfa88f39e0a833a0851ef9f5becc",
    "experiment": "7b25bfbbfe624b0da0619be95454a1fceee837f8663aa3d5b77589c2fe400cf6",
    "extended": "729c3e1b91d4a7fd50a1812a4bab493396fd26dfef67f871ebb4de9c538f116a",
    "extended-files": "cd382e16d7cee0f68ffb7b6379c9ff40922f6622165785e65d05f1114d7804fc",
    "general": "e9d476e32e298565fa0db39f3700cf12334e6a9e44722da8e0b1af804fadaf2d",
    "general-files": "4a6882e5df5c91257dd31e0498db6ede13cc2fd366fc29d3029639a5a18d0ccb",
    "inclusion": "05c8e1a4409b249c5d6700692db9c034e6a27737acb99a37dd784cf357729e2c",
    "littlewood": "e5d6adc2756a090d8ee5c9ef8db4e269a87ef083893450cfd502223f81c69867",
    "littlewood-files": "3ae7f22abf0737232e78ce3a181f155903d8f4c80693df90c7292130bdd2cc25",
    "search-lp": "d92ebdebcae65092378afc60e12def87e875f82a0bc085342ac7f80ced3fbe1a",
    "search-l1l2": "cacbe967810dc8fc92a5578808fd297a61e37c22230247b33806ed353e458412",
    "search-sup": "7c0cb44bba6c84dd25eea2fada434eef1e6b056503f64ad98e877a9038e4a9a7",
    "search-sup3-complex": "96ef9de55df3e90e70122722009196126d91303ec7571d65d54bf71893fe5900",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sup = _sup_form()
    docs = {"sup": sup.to_json(), "lp": _lp_form().to_json(),
            "sup3": _sup3_form().to_json(), "l1l2": _l1l2_form().to_json(),
            "sup_complex": _sup_complex_form().to_json(), "beta": _beta(),
            "family": _family(sup).to_json(),
            "head": TestFamily(_family(sup).columns[:1]).to_json()}
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
