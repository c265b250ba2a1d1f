"""Every public name of msgate has a caller inside the package, or is a named
cross-check route.

A module's public names are its ``__all__``.  A name counts as called when
some statement under ``src/msgate`` other than its own top-level definition
reads it as a ``Name`` or an ``Attribute``, or imports it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "msgate"

# Public names that only the tests call, each with the reason it stays.  The
# list only shrinks: a name that gains a package caller must leave it.
CROSS_CHECK_ONLY = {
    "hilbert.state_fidelity": "pure-state fidelity, used by the ideal and oracle tests",
    "ideal.ideal_propagator": "full ideal gate, compared with the oracle at lam = 0",
    "magnus.predicted_state": "second-order state, compared with the oracle's final state",
    "magnus.predict_density_matrix": "reduced density matrix behind the scalar predictors",
    "magnus.first_order_traced_unitary": "the paper's effective qubit map at first order",
    "magnus.traced_unitary_factored": "the same map in factored, exactly unitary form",
    "oracle.hamiltonian_matrix": "dense Hamiltonian of the tests' RK4 reference route",
    "oracle.propagate": "one-state form of propagate_batch, for the oracle tests",
    "oracle.expectation_trajectory": "<a> along one gate, compared with the loop functions",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_names(modules):
    names = set()
    for stem, tree in modules.items():
        for node in tree.body:
            targets = getattr(node, "targets", [])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names |= {f"{stem}.{name}" for name in ast.literal_eval(node.value)}
    return names


def _called_names(modules):
    """Qualified public names referred to outside their own definitions."""
    public = _public_names(modules)
    called = set()
    for stem, tree in modules.items():
        for stmt in tree.body:
            own = f"{stem}.{getattr(stmt, 'name', '')}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                called |= {q for q in public if q.endswith(f".{ref}") and q != own}
    return called


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    uncalled = _public_names(modules) - _called_names(modules)
    assert uncalled == set(CROSS_CHECK_ONLY)


def test_cross_check_list_names_public_names():
    assert set(CROSS_CHECK_ONLY) <= _public_names(_modules())
    assert all(reason for reason in CROSS_CHECK_ONLY.values())
