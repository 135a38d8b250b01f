"""Golden bytes of the declarative spec layers.

Every stored artifact is addressed through a spec's serialized form:
a predictor spec's ``to_json()`` is what ``repro simulate --spec``
reads back, a workload's ``content_key()`` keys the trace artifacts
and the service's job ids, and the planner's node digests chain those
keys into every store address.  The other spec tests only compare keys
with each other, so a refactor that reorders a payload or respells a
number would pass them and silently re-key every store.  These
constants were recorded before the spec layers shared one serde base,
registry and digest, and must never move without a ``STORE_VERSION``
or ``WORKLOAD_KEY_VERSION`` bump.

Render-node digests are left out: they fold in a fingerprint of the
renderer's bytecode, which differs between Python versions.
"""

import hashlib
from pathlib import Path

import pytest

from repro.pipeline import PipelineConfig
from repro.pipeline.planner import Planner
from repro.service.jobs import JobSpec
from repro.workload_spec import (
    AlternatingModelSpec,
    NAMED_SUITES,
    PerfLbrSpec,
    TraceFileSpec,
    named_suite,
)
from test_spec import SPEC_CATALOGUE
from test_workload_spec import PERF_FIXTURES, small_population, spec_catalogue


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def predictor_id(index: int) -> str:
    return f"{index:02d}-{SPEC_CATALOGUE[index].kind}"


def model_specs() -> dict:
    """One spec per branch-model kind (the population's four plus
    ``alternating`` and ``bias`` from its phased branch)."""
    models = {b.model.kind: b.model for b in small_population().branches}
    phased = models["phased"]
    models.update({m.kind: m for m, _ in phased.phases})
    models["alternating"] = AlternatingModelSpec()
    return models


def file_backed(tmp_path) -> dict:
    """The two file-backed workload kinds over fixed bytes."""
    text = tmp_path / "saved.txt"
    text.write_text("# name: saved\n16 1\n16 0\n20 1\n16 1\n")
    return {
        "trace-file": TraceFileSpec.of(text),
        "perf-lbr": PerfLbrSpec.of(str(PERF_FIXTURES / "clean.txt"), event="branches"),
    }


def workload_specs(tmp_path) -> dict:
    specs = spec_catalogue(tmp_path)
    specs.update(file_backed(tmp_path))
    return specs


#: Workload kinds whose JSON names a file path (a temporary directory
#: here), so only their content key is pinned.
PATH_KINDS = {"trace-file", "perf-lbr"}

#: sha256 of ``to_json()`` per entry of ``test_spec.SPEC_CATALOGUE``.
PREDICTOR_JSON = {
    "00-static": "2b8c3ad9efa50f7d599b741ef209ba04848e7427862131f34fdf4795d388a371",
    "01-static": "5009523cdc5da0385ecea91770d7dab453438bcc5c71079ebeda56aae6ae1df1",
    "02-profile-static": (
        "f0066268c56ef10327c1927ffd6344be6b8a799a53a9a49a0b990093423aaac6"
    ),
    "03-last-outcome": "87d96230b1365d160453a418bb416d338f41a29cf0c87ea03f026250e1d978bf",
    "04-bimodal": "5f973b5fc3123d0bfba9ebd1873ad90d310b8dfd1c88e8a26ddeededd726a76f",
    "05-two-level": "4eebd2f3de7e367851afbd148907beb404fbbc6179641dcdd0a576d4511b964f",
    "06-two-level": "d550291ac76e35e0087aac1aa7b14984b64400ec640686b0d22b54953ce53161",
    "07-two-level": "f05a4edcee625fd8704fb974032dc4369e429b9840b5b8d615a60aed9cb66924",
    "08-two-level": "2b752fc3f823b93b4ee6af7113a8b65da7ce933c84a2a05f6e84a323a9c1b995",
    "09-two-level": "44ba0d514a9c7ac6bc8a61e22e525f8adb2a7513c35ebcaf168def1ccacd5068",
    "10-agree": "85b694bb3bc8c16aab4b4a1758ad26b1ba71f53143a1d49e7179649670f361f6",
    "11-yags": "676477977de141b8ffb04d3a2b392fb4131849d1e861a5c18fff9b45f2e55bf5",
    "12-bimode": "148b1e89606f4effe8088e9570f7e52ac088ca10a69d143f6b9a1389cb7863bd",
    "13-filter": "4626cb8b95a2e92303e5cac2b02bda45e45528f13b5e23baddaeefa9c8b528dc",
    "14-dhlf": "0a02f2634444b0ecdce90964be89741f93c867ebb2bc73b2ddd39f031bbc6955",
    "15-tournament": "c8b529e0cb1894109cde5294d2ded5b8738f66eb6520917c22a0782293f45846",
    "16-hybrid": "249606b1146b1f347a4036b50b25b1cfe11288842b47a9ac1b474578a8ee19f4",
}

#: sha256 of ``to_json()`` per branch-model kind.
MODEL_JSON = {
    "loop": "deb41740d1e0e0ffaac915931a547cba3490cd0207c3eb9a2307ae29a23c7f51",
    "markov": "98a3bd0234bbe38d4fa9a0a36487cbb20e85ee9d858100f49833e25b73dafab2",
    "pattern": "e7452f8a4df46d40fb9e8c355c86c8891086001a38da99d8c0122f401f6dc0f9",
    "phased": "3277966dce4e6e024e3893371d7f8f5637938e0684e42f0650f9a9f68b4ea5cb",
    "bias": "a823336643b706fd71d6e9d28968852a0fbb0b3930ee7b7800aa74dc2fba6a98",
    "alternating": "5aa3b4a677bfd775cb2e3cb8286dccf6f341d1502c9415202a229b0d7fe64f2a",
}

#: sha256 of ``to_json()`` per workload kind (catalogue entries).
WORKLOAD_JSON = {
    "spec95": "22e0ee44b1590d65a8e0040226ae84cdf818916f3624d3098d8c8d9dd76653c9",
    "population": "45cc02712d75d2d7680e7f937eae15c8ddfbe364496633fd74f0e68a4aa819ea",
    "kernel": "b03a18cdf904abd8f75faa3e32e5125f87b9e93b858a471eea837d66bc1212c1",
    "gen-kernel": "55545e28b730c45c7fddc5158aa164452cd111922a2fe1e54468537d4217f968",
    "concat": "d86c8a7187543e3fe48f5d73f99c8cf16b8b55d09ac1e6251c8d8ccd12b53603",
    "filter": "5d8f4e86b8f1d11673da45f2b278ca8dad5f8ba97b53443e0d7431b826ce6290",
    "suite": "481c34b60bf42ac55e8710394d0bca47e23b1141c5d107bfab2198ccad914d32",
}

#: ``content_key()`` per workload kind.
WORKLOAD_KEYS = {
    "spec95": "af4308868075dcbfa35bb2edf00d64137820211603768d8a1a4ed7304503e11a",
    "population": "c80302c73f2eb165c23dba2f1808469ab42ef6fa951ea115a54ce3cd40eff9dc",
    "kernel": "3c2da0bff3d5a84115ca31d12b851bb3ccf321cf688eb57af11eb05237c6f36b",
    "gen-kernel": "d50fd44a8d2dfcd63018a96f14da67321d63e876214161b91bca59b23ce0e3de",
    "trace-file": "a610a13d0e3c3103836ce44e071d67f7068cf352952aad23b3903a50b7dd3541",
    "perf-lbr": "00cb5b9bdfb5dc172c18c13b2d6cd4a61553c6446b59b83ceaca6a2cf1e83a38",
    "concat": "34eac9065802fd08c64fcd33beb2d9651a08af0e11b43cae7eadab210ad36858",
    "filter": "22a0091fe4562a5c56025949abc47df5f5a3f7462d92257718f900cc0a9cc04a",
    "suite": "f2b4f4fdac7af42e473af4a490ddbeb06c7ac0084f3eb1688d971a43a873d702",
}

#: ``content_key()`` of every named suite at scales 0.25 and 1.
SUITE_KEYS = {
    "adversarial@0.25": "3b356a8c61893cf0f5cc0c8a84e903544d62ff2a161dc8461f0d7a3f23444710",
    "adversarial@1": "c7a16e4a8f8a516d9bf986995eacd63effc729dbe0a213cbbeac7dddd201c546",
    "kernels@0.25": "58637330b4c7c0936232eb14e08190272ea88d1ef25a44919fde6dcf835207cd",
    "kernels@1": "5326e5507c85f0d044262b0b75b3d004d1e8c9a5c66e724b3fcd01b3becfba68",
    "spec95@0.25": "94bd82481cd227298d92c8baec96db4b16bd4f7b399da037b66e527f32a1ea3e",
    "spec95@1": "b1c94222379b90b75612e561491cd81a1bdc593c0896f16951b7f8c5aa0f7580",
    "spec95-all@0.25": "385b0afe2f072e6da586b294fc265989b80498110e8660090743ea116513e441",
    "spec95-all@1": "9abace3cdd4e569fa16008f5d64d1d6c175841fdcec5e56024b2eb95519fe35f",
}

#: Non-render node digests of ``Planner(PipelineConfig())``.
NODE_DIGESTS = {
    "traces": "591c92a1d5f0eb5a1b26684cc47c5d19a336f4b351f82b80e7f76e7445a420f5",
    "profile:compress/bigtest.in": (
        "2c79c52f77eb27b1affe0e34aa4c4affdf88dfecde1483e6d6ccb62a59168e45"
    ),
    "profile:gcc/cp-decl.i": (
        "0dd4658f0aed7ed10bd28dc177819cb3f1305b2ba468e3c464d8ccd7e5172347"
    ),
    "profile:go/9stone21.in": (
        "ff81b1914fcb78ef887d899707152293cc02740d077e93bd906f9efc6aeddbdc"
    ),
    "profile:ijpeg/vigo.ppm": (
        "f4d811b10075aea9cc511bf3f550f844f9028ac2b2adeeed8ef25acf71e9844d"
    ),
    "profile:li/ref-lsp": (
        "3bdee38ce1631ea92fc729aed90ddce21d836d40962725e529b790330ea44306"
    ),
    "profile:m88ksim/ctl.lit": (
        "eab163025462068186871f19b552bde614d6dd298f4a1389507ed088de1b12f5"
    ),
    "profile:perl/scrabbl.pl": (
        "0951db19c0624249312b23930e7a5f9cbcd603d86ce9558bcce61b19a28a5207"
    ),
    "profile:vortex/vortex.lit": (
        "6c0a5e83b7a131d716f968469e95e127b5f7a62933fedd322ddbb36876f9c5c4"
    ),
    "profile:suite": "48fa230fb55ba6b9686c7365a365d6d32bf50a67ad32fa2ba707bf09dec3239a",
    "sweep:compress/bigtest.in": (
        "c2854b4d0666dc0105caa91fa4907fbab230d53b58a355f9cfdafa94e55676d2"
    ),
    "sweep:gcc/cp-decl.i": (
        "4d0adcd9047180fb44010d28e70c227c4ad19f7fdff279c837b85af15915390c"
    ),
    "sweep:go/9stone21.in": (
        "e3ae04b4c8ec52e81233ba237deb8bfc690e816257b8411509b47a7ec4b28b27"
    ),
    "sweep:ijpeg/vigo.ppm": (
        "fd35817d331a05a1395831b62577eee470b64f4ec52b342b3fd5b3018bb8cdf5"
    ),
    "sweep:li/ref-lsp": "44b36d5a4c4059be1c6e65790dd176293bd6c84db83ecba9a1a727c5a88b28b2",
    "sweep:m88ksim/ctl.lit": (
        "ec6b6617f0aa0ad691e88853525538b36ffccd0449c2c30fe67acd4c5c2d5b95"
    ),
    "sweep:perl/scrabbl.pl": (
        "7fe8896c0a796d5320888d24d404314b8308e62e67dd8773554a64a6c956a17c"
    ),
    "sweep:vortex/vortex.lit": (
        "4b9dcd2ae6f3aa722c7ade3b0a3b5db7faf77e6c8d98250fadbe2836826e79cf"
    ),
    "sweep": "669088fceb394b124fe1d281c0a3eee34f60c01df5b43cb1d2dd17cbf2dae1f5",
    "misclassification": (
        "b128704a2509444a46eb83f0fcd7f7ba2ce6e910a0d03928d23cfa3beb53156a"
    ),
}

#: ``JobSpec.content_key()`` of one kernels-suite request.
JOB_REQUEST = {"experiments": ["fig5", "table2"], "suite": "kernels", "scale": 0.25}
JOB_KEY = "8c603cb01025701a65c2eeea152f645e521b3daef8869a6ee815b8f3345889a9"


def non_render_digests() -> dict:
    planner = Planner(PipelineConfig())
    keys = [key for key in planner.universe() if not key.startswith("render:")]
    plan = planner.plan(keys)
    return {key: planned.digest for key, planned in plan.nodes.items()}


@pytest.mark.parametrize("index", range(len(SPEC_CATALOGUE)), ids=predictor_id)
def test_predictor_json(index):
    assert sha(SPEC_CATALOGUE[index].to_json()) == PREDICTOR_JSON[predictor_id(index)]


def test_predictor_catalogue_is_pinned_whole():
    assert set(PREDICTOR_JSON) == {predictor_id(i) for i in range(len(SPEC_CATALOGUE))}


def test_model_json():
    assert {kind: sha(m.to_json()) for kind, m in model_specs().items()} == MODEL_JSON


def test_workload_json(tmp_path):
    specs = workload_specs(tmp_path)
    got = {k: sha(s.to_json()) for k, s in specs.items() if k not in PATH_KINDS}
    assert got == WORKLOAD_JSON


def test_workload_content_keys(tmp_path):
    specs = workload_specs(tmp_path)
    assert {kind: spec.content_key() for kind, spec in specs.items()} == WORKLOAD_KEYS


def test_named_suite_keys():
    got = {
        f"{name}@{scale:g}": named_suite(name, scale=scale).content_key()
        for name in sorted(NAMED_SUITES)
        for scale in (0.25, 1.0)
    }
    assert got == SUITE_KEYS


def test_planner_node_digests():
    assert non_render_digests() == NODE_DIGESTS


def test_job_content_key():
    assert JobSpec.from_request(JOB_REQUEST).content_key() == JOB_KEY


def test_file_backed_bytes_are_fixed(tmp_path):
    # The trace-file key above is over these exact bytes; the perf-lbr
    # key is over the committed fixture.
    specs = file_backed(tmp_path)
    assert specs["trace-file"].materialize().name == "saved"
    assert Path(specs["perf-lbr"].path).is_file()
