"""File formats and the command-line front end.

Everything the library computes can round-trip through plain documents:
edge-list trees, hypermatrices (JSON or flat text), polynomials, certificate
reports.  The same operations are scriptable through the `steinerdh` CLI.
"""

import json

from steinerdh import (SparsePoly, build_steiner, export_json, export_text,
                       format_tree, import_json, import_text, parse_tree,
                       prufer_encode, random_tree, steiner_form,
                       verify_nullvector, canonical_odd_nullvector)
from steinerdh.cli import main as cli_main


def main():
    t = random_tree(5, seed=12)
    doc = format_tree(t)
    print("edge-list document:")
    print(doc)
    assert parse_tree(doc) == t
    print("Prüfer sequence (JSON):", json.dumps(prufer_encode(t)))

    h = build_steiner(t, 3)
    as_json = export_json(h)
    as_text = export_text(h)
    print(f"\nhypermatrix JSON ({len(as_json)} bytes), "
          f"flat text ({len(as_text)} bytes); round trips:",
          import_json(as_json) == h and import_text(as_text) == h)

    p = steiner_form(h)
    print("\npolynomial JSON (first 160 chars):")
    print(p.to_json()[:160], "...")
    assert SparsePoly.from_json(p.to_json()) == p

    cert = verify_nullvector(t, 3, canonical_odd_nullvector(t, 3))
    print("\ncertificate JSON keys:", sorted(cert.to_json().keys()))

    print("\n--- CLI: the same operations as subcommands ---")
    print("$ steinerdh gen --n 5 --seed 12")
    cli_main(["gen", "--n", "5", "--seed", "12"])
    print("$ steinerdh certify --tree <file> --k 2   (and 3, 4, ...)")
    print("  exit 0 verified | 1 input | 2 budget | 3 no certificate | 4 failed")


if __name__ == "__main__":
    main()
