"""Each numerical building block lives in one place in the package:
Gauss-Legendre nodes come only from ``selberg._gauss_legendre``, whose
table of rules, data/gauss_legendre.npy, is named only in
``selberg._gl_table``, the
batched Mobius action (a*z + b)/(c*z + d) is written only in
``geom._mobius_batch`` (besides the scalar
``MobiusElement.apply_complex``) and called only by the displacement
matrix ``fuchsian._displacement`` and the side walk
``fuchsian._reduce``, the greedy step through a domain's sides (a
``while`` loop taking an ``argmin``) is written only in that side walk,
which both the domain reduction and the certificate's generator check
run, the determinant a*d - b*c and the
canonical-sign cutoff abs(x) > 1e-12 of the PSL(2, R) normal form are
written only in ``geom._canonical_batch``, a Monte Carlo error bar, a
``.std(..., ddof=1)`` call, is taken only in ``MCEstimate.of``, the
tridiagonal eigensolver ``eigh_tridiagonal`` is used only in
``synthetic.radial_mode_eigenvalues``, the block size 1 << 16 is
written only in the assignment of ``geom._SAMPLE_BLOCK``, and the radial
law of a ball, arccosh(1.0 + u * (cosh(R) - 1.0)), is written only in
``geom._radial_icdf``, the Abel substitution arccosh(x + v * v) is
written only in ``selberg._abel_gl``, SciPy's adaptive ``quad`` is
called only in the checked ``selberg._quad``, SciPy's ``CubicSpline``
is built only in ``selberg._Spline``, and the cosh ratio of
h_t is taken only in its one rule, ``spectral_action._h_t_nodes``, and
a ``for`` loop (or comprehension) over range(start, stop, step), the
block stride, is written only in the block map ``geom._blockwise``, and
the ball enumerator ``fuchsian._enumerate`` is called only by the ball
cache ``fuchsian._group_ball_cached`` and the search for the certified
domain ``fuchsian._domain``.
Two loops stay serial and are named exemptions: the enumerator
``fuchsian._enumerate``, whose blocks build candidate lists of varying
length and whose ``group`` commands take milliseconds, and the lens
sampler ``propagator._lens_blocks``, which draws inside every block, so
that running its blocks apart would first hold every draw at once.
A function nested in another (a block closure) counts as part of the
function that encloses it, and a method is named with its class."""

import ast
import pathlib

import hyplab

SRC = pathlib.Path(hyplab.__file__).parent
NODE_SOURCES = {"roots_legendre", "leggauss"}
ALLOWED = {"nodes": {"_gauss_legendre"},
           "node table": {"_gl_table"},
           "mobius": {"_mobius_batch", "MobiusElement.apply_complex"},
           "mobius call": {"_displacement", "_reduce"},
           "side walk": {"_reduce"},
           "det": {"_canonical_batch"},
           "sign": {"_canonical_batch"},
           "mc error": {"MCEstimate.of"},
           "tridiagonal": {"radial_mode_eigenvalues"},
           "block": {"geom._SAMPLE_BLOCK"},
           "radial law": {"_radial_icdf"},
           "abel substitution": {"_abel_gl"},
           "quad": {"_quad"},
           "spline": {"_Spline.__init__"},
           "cosh ratio": {"_h_t_nodes"},
           "block stride": {"_blockwise", "_enumerate", "_lens_blocks"},
           "enumeration": {"_group_ball_cached", "_domain"}}


def _walk(node, func=None, owner=""):
    """Yield every descendant with the name of its outermost enclosing
    function, as Class.method for a method (None at module level): a
    nested function belongs to the function that defines it."""
    for child in ast.iter_child_nodes(node):
        yield child, func
        if func is None and isinstance(child, ast.ClassDef):
            yield from _walk(child, None, f"{owner}{child.name}.")
            continue
        inner = (owner + child.name if isinstance(child, ast.FunctionDef)
                 and func is None else func)
        yield from _walk(child, inner, owner)


def _name(node):
    """The name a Name or Attribute node refers to."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_affine(node):
    """An expression of the form x * y + w."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mult))


def _is_product(node):
    """x * y with both factors plain names, attributes or subscripts."""
    plain = (ast.Name, ast.Attribute, ast.Subscript)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, plain)
            and isinstance(node.right, plain))


def _is_sign_cutoff(node):
    """abs(x) > 1e-12, with the builtin or NumPy's abs."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Gt)
            and isinstance(node.left, ast.Call)
            and _name(node.left.func) == "abs"
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 1e-12)


def _is_mc_error(node):
    """x.std(..., ddof=1), also as np.std(x, ddof=1)."""
    return (isinstance(node, ast.Call) and _name(node.func) == "std"
            and any(kw.arg == "ddof"
                    and getattr(kw.value, "value", None) == 1
                    for kw in node.keywords))


def _is_block(node):
    """The literal 1 << 16."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and getattr(node.left, "value", None) == 1
            and getattr(node.right, "value", None) == 16)


def _is_radial_law(node):
    """arccosh(1.0 + x * (cosh(y) - 1.0)), also as math.acosh."""
    if not (isinstance(node, ast.Call)
            and _name(node.func) in ("arccosh", "acosh")
            and len(node.args) == 1):
        return False
    arg = node.args[0]
    if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
            and getattr(arg.left, "value", None) == 1.0
            and isinstance(arg.right, ast.BinOp)
            and isinstance(arg.right.op, ast.Mult)):
        return False
    factor = arg.right.right
    return (isinstance(factor, ast.BinOp) and isinstance(factor.op, ast.Sub)
            and isinstance(factor.left, ast.Call)
            and _name(factor.left.func) == "cosh"
            and getattr(factor.right, "value", None) == 1.0)


def _is_abel_substitution(node):
    """arccosh(x + v * v), also as math.acosh."""
    if not (isinstance(node, ast.Call)
            and _name(node.func) in ("arccosh", "acosh")
            and len(node.args) == 1):
        return False
    arg = node.args[0]
    return (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
            and isinstance(arg.right, ast.BinOp)
            and isinstance(arg.right.op, ast.Mult)
            and isinstance(arg.right.left, ast.Name)
            and isinstance(arg.right.right, ast.Name)
            and arg.right.left.id == arg.right.right.id)


def _is_block_stride(node):
    """A for loop or comprehension over range(start, stop, step)."""
    it = getattr(node, "iter", None)
    return (isinstance(node, (ast.For, ast.comprehension))
            and isinstance(it, ast.Call) and _name(it.func) == "range"
            and len(it.args) == 3)


def _is_side_walk(node):
    """A while loop that takes an argmin: a greedy descent."""
    return isinstance(node, ast.While) and any(
        isinstance(sub, ast.Call) and _name(sub.func) == "argmin"
        for sub in ast.walk(node))


def _sites():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a block literal is named by the variable it is assigned to
        targets = {id(node.value): node.targets[0].id
                   for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and isinstance(node.targets[0], ast.Name)}
        for node, func in _walk(tree):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in NODE_SOURCES and not isinstance(node, ast.FunctionDef):
                yield "nodes", path.name, node.lineno, func
            if (isinstance(node, ast.Constant)
                    and node.value == "gauss_legendre.npy"):
                yield "node table", path.name, node.lineno, func
            # an import of quad counts too, at module level
            if name == "quad" and not isinstance(node, ast.FunctionDef):
                yield "quad", path.name, node.lineno, func
            if (isinstance(node, ast.Call)
                    and _name(node.func) == "CubicSpline"):
                yield "spline", path.name, node.lineno, func
            if (isinstance(node, ast.Call)
                    and _name(node.func) == "_cosh_ratio"):
                yield "cosh ratio", path.name, node.lineno, func
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and _is_affine(node.left) and _is_affine(node.right)):
                yield "mobius", path.name, node.lineno, func
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and _is_product(node.left) and _is_product(node.right)):
                yield "det", path.name, node.lineno, func
            if (isinstance(node, ast.Call)
                    and _name(node.func) == "_mobius_batch"):
                yield "mobius call", path.name, node.lineno, func
            if (isinstance(node, ast.Call)
                    and _name(node.func) == "_enumerate"):
                yield "enumeration", path.name, node.lineno, func
            if _is_side_walk(node):
                yield "side walk", path.name, node.lineno, func
            if _is_sign_cutoff(node):
                yield "sign", path.name, node.lineno, func
            if _is_mc_error(node):
                yield "mc error", path.name, node.lineno, func
            # a plain import binds the name; every use of it counts
            if name == "eigh_tridiagonal" and not (
                    isinstance(node, ast.alias) and node.asname is None):
                yield "tridiagonal", path.name, node.lineno, func
            if _is_radial_law(node):
                yield "radial law", path.name, node.lineno, func
            if _is_abel_substitution(node):
                yield "abel substitution", path.name, node.lineno, func
            if _is_block_stride(node):
                yield ("block stride", path.name,
                       getattr(node, "lineno", node.iter.lineno), func)
            if _is_block(node):
                yield ("block", path.name, node.lineno,
                       f"{path.stem}.{targets.get(id(node), func)}")


def test_one_node_source_and_one_batched_mobius_action():
    sites = list(_sites())
    stray = [f"{kind} at {file}:{line} in {func}"
             for kind, file, line, func in sites
             if func not in ALLOWED[kind]]
    assert not stray
    # the scan sees the sanctioned sites, so it is not vacuous
    assert {(kind, func) for kind, _, _, func in sites} == {
        (kind, func) for kind, funcs in ALLOWED.items() for func in funcs}
