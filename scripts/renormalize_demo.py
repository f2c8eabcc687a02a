#!/usr/bin/env python3
"""End-to-end walk through the pipeline on a small graph library:

  1. register 1PI generators and inspect coproducts,
  2. factorize a minimal-subtraction character and a log-form character,
  3. cross-check the Atkinson fixed point against the recursion,
  4. print the graph polynomials, embedding report, and matrix-space data.

    python3 scripts/renormalize_demo.py [--seed 5]
"""

import argparse
import random
import sys
from fractions import Fraction as F
from pathlib import Path

# run from a checkout without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rbren import (
    Character,
    FeynmanGraph,
    GeneratorRegistry,
    HopfElement,
    RBAlgebraDescriptor,
    antipode,
    atkinson_solve,
    birkhoff_factorize,
    birkhoff_parts,
    coproduct,
    eta_form,
    factorize_all,
    gl_class,
    pole_power_character,
    psi,
    second_symanzik,
    upsilon_embedding_tests,
    verify_factorization,
)

P1 = (F(1), F(0), F(0), F(0))
P2 = (F(0), F(1), F(0), F(0))


def neg(p):
    return tuple(-q for q in p)


def build_registry() -> GeneratorRegistry:
    reg = GeneratorRegistry(dim=4)
    reg.register(
        "B",
        FeynmanGraph(
            ("a", "b"),
            (("e1", "a", "b"), ("e2", "a", "b")),
            (("a", P1), ("a", P2), ("b", neg(P1)), ("b", neg(P2))),
        ),
    )
    reg.register(
        "sunset",
        FeynmanGraph(
            ("u", "v"),
            (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")),
            (("u", P1), ("v", neg(P1))),
        ),
    )
    reg.register(
        "Gamma2",
        FeynmanGraph(
            ("u", "v", "w"),
            (("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "v", "w")),
            (("u", P1), ("u", P2), ("w", neg(P1)), ("w", neg(P2))),
        ),
    )
    # sunset/bubble contracts to this self-loop graph
    reg.register(
        "tadpole",
        FeynmanGraph(("z",), (("s1", "z", "z"),), (("z", P1), ("z", neg(P1)))),
    )
    return reg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    reg = build_registry()
    print("== coproducts ==")
    for name in ("B", "sunset", "Gamma2"):
        print(f"  coproduct({name}) = {coproduct(HopfElement.gen(name), reg)}")
        print(f"  antipode({name})  = {antipode(HopfElement.gen(name), reg)}")

    print("\n== minimal subtraction (pole_power, c = 1/2) ==")
    char = pole_power_character(reg, c=F(1, 2))
    minus_char, plus_char = birkhoff_parts(char, reg)
    for name in factorize_all(char, reg):
        minus, plus = birkhoff_factorize(char, reg, name)
        ok, _ = verify_factorization(char, minus_char, plus_char, name, reg)
        print(f"  {name:10s} phi={char(name)}  phi-={minus}  phi+={plus}  ok={ok}")

    b_l, _ = atkinson_solve(char, reg)
    agrees = all(b_l(n) == minus_char(n) for n in reg.names())
    print(f"  Atkinson fixed point reproduces phi-: {agrees}")

    print("\n== log-form character on two divisor components ==")
    desc = RBAlgebraDescriptor.nc_log(2, 2)
    rng = random.Random(args.seed)
    log_char = Character(desc, rule=lambda n, g: desc.random_element(rng), reg=reg)
    for name in factorize_all(log_char, reg):
        minus, plus = birkhoff_factorize(log_char, reg, name)
        holomorphic = desc.is_zero(desc.T(plus))
        print(f"  {name:10s} pole-free part is dlog-free: {holomorphic}")

    print("\n== graph polynomials and matrix-space data ==")
    for name in ("B", "sunset", "Gamma2"):
        g = reg.graph(name)
        report = upsilon_embedding_tests(g)
        spec = eta_form(g, 4)
        print(
            f"  {name:8s} Psi={psi(g)}  P={second_symanzik(g)}  "
            f"rank={report['upsilon_rank']}/{report['edges']}  "
            f"exponents=({spec.numerator_exponent}, {spec.denominator_exponent})"
        )
        loops = report["loops"]
        print(f"           open stratum class for {loops} loops: {gl_class(max(loops,1))}")


if __name__ == "__main__":
    main()
