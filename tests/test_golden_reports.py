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
    "almost-curry-files": "b8e80a6233fa368d864af2afddb58582f2400d9b55b6c547eddc9b40e7e051b3",
    "almost-files": "9df9e5cff74242658bb918ceb1ae61c5822d47799ed8ac4fe4bd3a3e5988616c",
    "bh": "88094779bec9a06321aa8b86a508e5af2d6b8be5e95c12ef8a307461f192082f",
    "bh-files": "723d87bbc6df732134c2c54e299f65e85764a0560641009c28a73d4daec4d620",
    "demos": "6949653ee285a554f7ae91b257e8cae73ab72315b6c52831e87bb47959a89601",
    "dv": "58cc06ddf2dc7a07c5581fa8448bc662198e91867e2dedea2541fc17418e169a",
    "dv-files": "60b41fb1078e610f4a0e48a2d741b014d5e60997de0cc1333faa6847ba1330fd",
    "experiment": "9f7d7341f5efd9c984ea22c6e819e54bf139c542407d33014fb60014517a8889",
    "extended": "059d6aeec759cb4ec1f545d14b96d54b413b7901c073e095d0842f73a6ceb5f9",
    "extended-files": "cca8152e74e6a06ee978639f7df9794bfaef4e97606901db8b1add370ce5b23c",
    "general": "b66cad98b46b960881144b7c7ff707632b8ccdd44c862a0d6c817dc5f452f871",
    "general-files": "17ccffeda76694ea50e17eb94f4d5c62392c066cba7d13bd385a4a618accb4bb",
    "inclusion": "caa41ba74353021a3f3f711aa6765c44e0dc6f847bd3a9efcdf12236a299cc4f",
    "littlewood": "b724e0654d8a7b61db6896a1ca592f519a6efaa2d4f74033361f57d8499e4aca",
    "littlewood-files": "0d78fa6d8c8a5c4f6a02a0c0bed408fced481e9ede5c9258bd2ffb5c3560eeae",
    "search-lp": "ac2ade6354701852dc47837b2a944f5210a7b611030205797142bce3e250c8e7",
    "search-l1l2": "944214b02146897bb7368bc69d5fc783d2f2fe6438e4b732e7ae9415ff8e22f4",
    "search-sup": "d968b601c01db67e4bf16fd8342b3d4ab5e2802c9967da352804e2da84f428ef",
    "search-sup3-complex": "d9bfe6a29ae7fd54b51a74a4f458c0f0d4f56298d128eb73befeb5774848b317",
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
