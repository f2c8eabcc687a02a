"""A golden digest of CLI output.

One SHA-256 over the exit codes and stdout of a fixed command list, run
in-process on fixed graphs.  A change that keeps the CLI byte-identical keeps
the digest; a change that means to alter output updates ``DIGEST`` and says
which commands changed.  ``symanzik matrix`` is in the list because
det M = Psi holds for every cycle basis, so only the printed matrix shows
which spanning tree ``cycle_basis_matrix`` picked.

A second digest covers the Rota-Baxter and Birkhoff commands: ``rb t``,
``rb defect`` and ``rb residue`` on seeded elements of every sweep kind and
of ``saito(2)``, and ``birkhoff factorize --verify`` with the pole-power
character on a small library.

A third digest covers the periods commands: ``symanzik psi``, ``second``,
``check`` and ``eta`` on the same graphs as the first, ``motive
arrangement`` on small arrangement files and ``motive sigma`` for
l <= 6.  ``motive sigma 6 0`` (21 planes) printed a size-bound error until
the plane-count bound gave way to a work bound; it now prints the class.
"""

import contextlib
import hashlib
import itertools
import io
import json
import random

import oracles
from conftest import (
    banana4_graph,
    bubble_chain_graph,
    bubble_graph,
    connected_multigraphs,
    gamma2_graph,
    gamma3_chain_graph,
    ladder_graph,
    sunset_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import SWEEP_DESCRIPTORS, Arrangement, RBAlgebraDescriptor, serde
from rbren.cli import main

DIGEST = "4944e6addd107280db713ee47d8e2a1495ba74b308e042cea53900bb519479b9"
RB_DIGEST = "d06890cf1d2a8b1d81a441bc29357bb83225afd65262fc103638b117365bfb93"
PERIODS_DIGEST = "00bb31bfaa96e6476b0e540468382ca153099bdffde4842fa5f5a3cecee186d1"


def digest_graphs():
    graphs = [(f"W{n}", wheel_graph(n)) for n in (3, 4, 5)]
    graphs += [(f"L{n}", ladder_graph(n)) for n in (3, 4)]
    graphs += [(f"C{n}", bubble_chain_graph(n)) for n in (2, 3, 4)]
    graphs += [
        ("banana4", banana4_graph()),
        ("Gamma2", gamma2_graph()),
        ("Gamma3", gamma3_chain_graph()),
        ("sunset", sunset_graph()),
        ("tadpole", tadpole_graph()),
    ]
    one_pi = (
        g
        for g in connected_multigraphs(4, 5)
        if oracles.is_two_edge_connected(g.vertices, [e[1:] for e in g.internal_edges])
    )
    graphs += [(f"m{i}", g) for i, g in enumerate(one_pi)]
    return graphs


def _recorder(digest):
    """call(files, name, *argv) runs argv with each key of files standing
    for its path; the digest sees name and the keys in place of the files."""

    def call(files, name, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main([str(files[arg]) if arg in files else arg for arg in argv])
        digest.update(json.dumps([name, argv, status, out.getvalue()]).encode())
        return status, out.getvalue()

    return call


def test_cli_output_digest(tmp_path):
    digest = hashlib.sha256()
    call = _recorder(digest)

    commands = 0
    for name, g in digest_graphs():
        files = {"GRAPH": tmp_path / f"{name}.json"}
        files["GRAPH"].write_text(json.dumps(serde.dump_graph(g)))
        for cmd in ("info", "trees", "cuts", "key"):
            call(files, name, "graph", cmd, "GRAPH")
        for dim in ("2", "4", "6"):
            status, out = call(files, name, "graph", "divergent", "GRAPH", "--dim", dim)
            found = json.loads(out)["divergent_subgraphs"] if status == 0 else []
            if dim == "4" and found:
                edges = ",".join(found[0])
                call(files, name, "graph", "quotient", "GRAPH", "--edges", edges)
                commands += 1
        for cmd in ("coproduct", "antipode"):
            call(files, name, "hopf", cmd, "--graph", "GRAPH", "--dim", "4")
        for cmd in ("matrix", "upsilon"):
            call(files, name, "symanzik", cmd, "GRAPH")
        commands += 11
    assert commands == 1530
    assert digest.hexdigest() == DIGEST


def test_rb_and_birkhoff_output_digest(tmp_path):
    digest = hashlib.sha256()
    call = _recorder(digest)
    commands = 0
    kinds = dict(SWEEP_DESCRIPTORS, saito_2=RBAlgebraDescriptor.saito(2))
    for kind, desc in sorted(kinds.items()):
        algebra = tmp_path / f"{kind}.json"
        algebra.write_text(json.dumps(serde.dump_descriptor(desc)))
        rng = random.Random(f"digest:{kind}")
        paths = []
        for i in range(8):
            paths.append(tmp_path / f"{kind}-{i}.json")
            x = desc.random_element(rng, even=i % 4 != 3)
            paths[-1].write_text(json.dumps(serde.dump_element(desc, x)))
        for i, path in enumerate(paths):
            files = {"X": path, "Y": paths[(i + 1) % len(paths)], "ALGEBRA": algebra}
            name = f"{kind}-{i}"
            call(files, name, "rb", "t", "X", "--algebra", "ALGEBRA")
            call(files, name, "rb", "defect", "X", "Y", "--algebra", "ALGEBRA")
            for indices in (["--index", "1"], ["--index", "1", "--index", "2"]):
                call(files, name, "rb", "residue", "X", "--algebra", "ALGEBRA", *indices)
            commands += 4
    graphs = {"B": bubble_graph(), "Gamma2": gamma2_graph(), "tadpole": tadpole_graph(),
              "sunset": sunset_graph(), "C3": bubble_chain_graph(3)}
    library = tmp_path / "library.json"
    library.write_text(json.dumps({"graphs": {n: serde.dump_graph(g) for n, g in graphs.items()}}))
    for c in ("0", "1/2"):
        character = tmp_path / "character.json"
        character.write_text(
            json.dumps({"target": {"kind": "laurent_ms"}, "rule": "pole_power", "c": c})
        )
        files = {"CHARACTER": character, "LIBRARY": library}
        for name in sorted(graphs):
            argv = ["birkhoff", "factorize", name, "--character", "CHARACTER"]
            call(files, f"pole_power {c}", *argv, "--library", "LIBRARY", "--verify")
            commands += 1
    assert commands == 202
    assert digest.hexdigest() == RB_DIGEST


def test_periods_output_digest(tmp_path):
    digest = hashlib.sha256()
    call = _recorder(digest)
    commands = 0
    for name, g in digest_graphs():
        files = {"GRAPH": tmp_path / f"{name}.json"}
        files["GRAPH"].write_text(json.dumps(serde.dump_graph(g)))
        for cmd in ("psi", "second", "check", "eta"):
            call(files, name, "symanzik", cmd, "GRAPH")
        commands += 4
    braid = [
        [int(k == i) - int(k == j) for k in range(4)] for i, j in itertools.combinations(range(4), 2)
    ]
    rng = random.Random("digest:arrangements")
    arrangements = {
        "braid A3": Arrangement(4, braid, projective=True),
        "braid A3 affine": Arrangement(4, braid),
        "halves": Arrangement(3, [[1, "1/2", 0], [0, 1, "-2/3"], [1, 0, 1]], projective=True),
    }
    # the forms in {-1, 0, 1}^3 whose first nonzero entry is 1: one per plane
    forms = [
        f for f in itertools.product((-1, 0, 1), repeat=3) if any(f) and next(filter(None, f)) == 1
    ]
    for i in range(6):
        planes = rng.sample(forms, rng.randint(2, 7))
        arrangements[f"random {i}"] = Arrangement(3, planes, projective=i % 2 == 0)
    for name, arr in arrangements.items():
        files = {"ARRANGEMENT": tmp_path / "arrangement.json"}
        files["ARRANGEMENT"].write_text(json.dumps(serde.dump_arrangement(arr)))
        call(files, name, "motive", "arrangement", "ARRANGEMENT")
        commands += 1
    for loops in range(1, 7):
        for genus in range(4):
            call({}, "sigma", "motive", "sigma", str(loops), str(genus))
            commands += 1
    assert commands == 549
    assert digest.hexdigest() == PERIODS_DIGEST
