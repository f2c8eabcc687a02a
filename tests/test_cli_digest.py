"""A golden digest of CLI output.

One SHA-256 over the exit codes and stdout of a fixed command list, run
in-process on fixed graphs.  A change that keeps the CLI byte-identical keeps
the digest; a change that means to alter output updates ``DIGEST`` and says
which commands changed.  ``symanzik matrix`` is in the list because
det M = Psi holds for every cycle basis, so only the printed matrix shows
which spanning tree ``cycle_basis_matrix`` picked.
"""

import contextlib
import hashlib
import io
import json

import oracles
from conftest import (
    banana4_graph,
    bubble_chain_graph,
    connected_multigraphs,
    gamma2_graph,
    gamma3_chain_graph,
    ladder_graph,
    sunset_graph,
    tadpole_graph,
    wheel_graph,
)
from rbren import serde
from rbren.cli import main

DIGEST = "4944e6addd107280db713ee47d8e2a1495ba74b308e042cea53900bb519479b9"


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


def test_cli_output_digest(tmp_path):
    digest = hashlib.sha256()

    def call(path, name, *argv):
        """Run argv with GRAPH standing for the graph file; the digest sees
        the graph's name in place of the file."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main([str(path) if arg == "GRAPH" else arg for arg in argv])
        digest.update(json.dumps([name, argv, status, out.getvalue()]).encode())
        return status, out.getvalue()

    commands = 0
    for name, g in digest_graphs():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serde.dump_graph(g)))
        for cmd in ("info", "trees", "cuts", "key"):
            call(path, name, "graph", cmd, "GRAPH")
        for dim in ("2", "4", "6"):
            status, out = call(path, name, "graph", "divergent", "GRAPH", "--dim", dim)
            found = json.loads(out)["divergent_subgraphs"] if status == 0 else []
            if dim == "4" and found:
                edges = ",".join(found[0])
                call(path, name, "graph", "quotient", "GRAPH", "--edges", edges)
                commands += 1
        for cmd in ("coproduct", "antipode"):
            call(path, name, "hopf", cmd, "--graph", "GRAPH", "--dim", "4")
        for cmd in ("matrix", "upsilon"):
            call(path, name, "symanzik", cmd, "GRAPH")
        commands += 11
    assert commands == 1530
    assert digest.hexdigest() == DIGEST
