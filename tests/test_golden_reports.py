"""Report bodies pinned byte for byte.

Each command runs in process and the sha256 of its exit code and stdout is
compared with a digest recorded from an earlier version of the package. A
refactor that keeps every reported value passes unchanged; one that moves a
value by a single ulp, reorders a key or changes a seeded stream fails here.
When a value changes on purpose, record the new digest together with the
reason in the change log.
"""

import argparse
import hashlib
import json

import numpy as np
import pytest

from summability import FormTensor, ScalarField, SpaceSpec, TestFamily, VectorSeq
from summability.cli import build_parser, main


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


def _seq():
    rng = np.random.default_rng(20)
    return VectorSeq(rng.standard_normal((5, 4)), SpaceSpec.lp(4, 3))


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
    "opnorm": ["opnorm", "{lp}"],
    "norm-weak": ["norm", "weak", "{seq}", "--p", "2"],
}
# commands that print one value and its label, not a report document
PLAIN = {"opnorm", "norm-weak"}

DIGESTS = {
    "almost-curry-files": "a1fe271546aaa69c7fb3eb7d010a7d745fddd4bf2f0d5f299202dadc339c40fc",
    "almost-files": "5f50428bb680d4e4628887ea86287dbab14ef53d06187b23725e00260c7e6476",
    "bh": "6518a0872f4cb7422e80f806eec86d138081c90b6b92ad45cf5c6ee0c115f6e2",
    "bh-files": "1c5c072f68c3c57cb7c08ffa94aa1e7dac24dfec0af36b2c8ba79d5c2147e0d8",
    "demos": "fe78f0b8f969e26412880ac57d4682654d9794fa197fa6bfe9748461191e8dd8",
    "dv": "adf00facb54ff3b699357cab5f52d41b611b38ae978d4c031547b53a6b1e4be0",
    "dv-files": "c8f5db666318b710011262e2727b58a5b7d5654a939984cb6b21949356d3b0e5",
    "experiment": "e34ace4a5f91016168ad62110f7beb4b6fded09893cb1b1601811a9ff04c1d37",
    "extended": "40731f629480202a3757219189f50b8b8db4627b73041949d9c583d7c360ecee",
    "extended-files": "5887499eb7a73aa04d07d29217da71389921aae84165eb6de7ab9ac3a33876d6",
    "general": "c4e61bfcdb7ae962317f52ba62b53b713038ec706d0d82f860b9cd138a97408c",
    "general-files": "f3b666db57081357f0502077eac18978e703be99f3a71837400d4c10361ce2c4",
    "inclusion": "7e6fc93a805c1a6024c0e2f4648cb100a924f4cb753f86ddde80d8cc324cdd98",
    "littlewood": "665991a7cf50c57ca6a57a3fa13414dfe8ec16780e750c203fc0b3dbdabd57c9",
    "littlewood-files": "743a12c16a37c1af73e2b4f6ba75228a8dccbed20fb29fdb101b4f2afd400e99",
    "norm-weak": "b829e227012e215cea99218123331c7df28ad7bc3eec2eb9a0aea8ac7de7cfa7",
    "opnorm": "cb2ae9dcbe05253e6f66e3fe2e404f36e4297bfd2727036d1ba9234f65ff2c86",
    "search-lp": "2c0a965828610517d7e46341bc3707e335cabd984405a084ba002ca8b54a3a4b",
    "search-l1l2": "1473a41a1c4ce805870387675e3a327379cfb7fdeffebb82896642d0f6f1d760",
    "search-sup": "2305fa47562f138537cd1f1824d8471885646a9b567bfedf8aaaea57c42a3f90",
    "search-sup3-complex": "0bee8c8b5bc883c3c9b16388f5fc456c629cbf01039a4bb82c45df581efe0ca2",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sup = _sup_form()
    docs = {"sup": sup.to_json(), "lp": _lp_form().to_json(),
            "sup3": _sup3_form().to_json(), "l1l2": _l1l2_form().to_json(),
            "sup_complex": _sup_complex_form().to_json(), "beta": _beta(),
            "seq": _seq().to_json(),
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


@pytest.mark.parametrize("name", sorted(set(COMMANDS) - PLAIN))
def test_config_echoes_the_options_of_its_command(name, files, capsys):
    # every option the command takes, under its dest name, but its output
    # and its paths (positional files, --beta), and for a verify suite given
    # files, the options that only draw seeded instances
    main([arg.format(**files) for arg in COMMANDS[name]])
    doc = json.loads(capsys.readouterr().out)
    parser = build_parser()
    for word in doc["command"].split():
        action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[word]
    seeding = {"random", "m", "order", "seed", "field", "jmax"}
    unread = seeding if name.endswith("-files") else set()
    assert list(doc["config"]) == [a.dest for a in parser._actions if a.option_strings
                                   and a.dest not in {"help", "out", "format", "beta", *unread}]
