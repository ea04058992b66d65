#!/usr/bin/env python3
"""Size of the specx sources: code lines and defaulted parameters.

    python3 tools/src_size.py [REPO_ROOT]

For each `src/specx/*.py` under REPO_ROOT (default: the repository this
script sits in) it prints the code lines, which leave out blank lines,
comment lines and docstrings, and then each parameter with a default value
and each dataclass field with a default, as `function.param = default` or
`Class.field = default`. An entry is marked `unset` when no call in `src/`,
`tests/` or `specxbench/` sets it, and `tests-only` when calls in `tests/`
set it but none in `src/` or `specxbench/` does. Then each module-level
function or class that no code outside `tests/` reaches is listed, as
`def name` or `class name`, marked `tests-only` when `tests/` reaches it
and `unreached` otherwise. A last line gives the totals.

Matching is by name, without resolving imports or types: a call sets a
parameter when the called name (`f(...)` or `obj.f(...)`; `Class(...)` for
`Class.__init__` and dataclass fields) equals the function's name and the
call passes the parameter by keyword or by position. A keyword that a
function takes through `**kwargs` and forwards with `g(..., **kwargs)`
also counts for g. A dataclass field is also set by an assignment
`obj.field = ...` to an object other than `self`. Functions or fields of
one name in several modules therefore share their callers.

Reach is matched by name too: a definition is reached when a reached
piece of code names it (`name` or `obj.name`, imports aside), and what a
reached definition names is reached in turn. Outside `tests/` the code
reached first is all of `specxbench/` and the module-level statements of
`src/`, which hold the command tables and the `__main__` entry; in
`tests/` it is all of `tests/`. Standard library only.
"""

import ast
import collections
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path):
    """Lines holding a token that is neither a comment nor in a docstring."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    with open(path) as fh:
        tree = ast.parse(fh.read())
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    rows = set()
    for tok in tokens:
        if tok.type not in SKIPPED:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows - docs)


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _called_name(target) == "dataclass":
            return True
    return False


class Definition:
    """A function or dataclass: the name callers call it by, its parameters
    in positional order, and the defaulted ones with their default text."""

    def __init__(self, label, name, positional, defaults, kwargs=None,
                 is_dataclass=False):
        self.label = label
        self.name = name
        self.positional = positional
        self.defaults = defaults  # [(param, default source)]
        self.kwargs = kwargs  # name of a **kwargs parameter, if any
        self.is_dataclass = is_dataclass


def definitions(tree):
    """Definitions of one module with at least one defaulted parameter or
    field, and {function name: names it forwards its **kwargs to}."""
    found, forwards = [], {}

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [(s.target.id, s.value) for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    found.append(Definition(
                        child.name, child.name, [f for f, _ in fields],
                        [(f, ast.unparse(v)) for f, v in fields
                         if v is not None], is_dataclass=True))
                visit(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, FUNCS):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                pos_defaults = list(zip(positional[len(positional)
                                                   - len(args.defaults):],
                                        args.defaults))
                kw_defaults = [(a.arg, d) for a, d in zip(args.kwonlyargs,
                                                          args.kw_defaults)
                               if d is not None]
                name = child.name
                if cls is not None and not any(
                        _called_name(d) == "staticmethod"
                        for d in child.decorator_list):
                    positional = positional[1:]  # self or cls
                    if name == "__init__":
                        name = cls.name
                kwargs = args.kwarg.arg if args.kwarg else None
                found.append(Definition(
                    f"{prefix}{child.name}", name, positional,
                    [(p, ast.unparse(d))
                     for p, d in pos_defaults + kw_defaults], kwargs))
                if kwargs:
                    for call in ast.walk(child):
                        if isinstance(call, ast.Call) and any(
                                k.arg is None and isinstance(k.value, ast.Name)
                                and k.value.id == kwargs
                                for k in call.keywords):
                            forwards.setdefault(name, set()).add(
                                _called_name(call.func))
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return [d for d in found if d.defaults], forwards


def settings(trees, defs, forwards):
    """{called name: parameter names set by some call}, and the attribute
    names assigned on objects other than self."""
    params = {}
    for d in defs:
        params.setdefault(d.name, []).append(d)
    set_by = {}
    assigned = set()

    def credit(name, keyword, seen=()):
        set_by.setdefault(name, set()).add(keyword)
        own = {p for d in params.get(name, ()) for p in d.positional}
        own |= {p for d in params.get(name, ()) for p, _ in d.defaults}
        if keyword not in own:
            for target in forwards.get(name, ()):
                if target not in seen:
                    credit(target, keyword, seen + (name,))

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _called_name(node.func)
                if name is None:
                    continue
                for k in node.keywords:
                    if k.arg is not None:
                        credit(name, k.arg)
                count = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    count += 1
                for d in params.get(name, ()):
                    for p in d.positional[:count]:
                        credit(name, p)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if (isinstance(t, ast.Attribute)
                            and not (isinstance(t.value, ast.Name)
                                     and t.value.id == "self")):
                        assigned.add(t.attr)
    return set_by, assigned


def _names(node):
    """Names that the code under node refers to, as `name` or `obj.name`."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def top_level(tree):
    """{name: names its body refers to} for the module-level functions and
    classes of a module, and the names its other statements refer to."""
    defs, rest = {}, set()
    for node in tree.body:
        if isinstance(node, FUNCS + (ast.ClassDef,)):
            defs[node.name] = _names(node)
        else:
            rest |= _names(node)
    return defs, rest


def reached(roots, refs):
    """Names reachable from roots through refs, {name: names it refers
    to}; names that refs lacks end a path."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in refs and name not in seen:
            seen.add(name)
            todo.extend(refs[name])
    return seen


def _python_files(root, sub):
    for base, dirs, files in os.walk(os.path.join(root, sub)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def report(root):
    """Lines of the report for the repository at root."""
    pkg = os.path.join(root, "src", "specx")
    modules = sorted(f for f in os.listdir(pkg) if f.endswith(".py"))
    callers = {}
    for sub in ("src", "specxbench", "tests"):
        callers[sub] = []
        for path in _python_files(root, sub):
            with open(path) as fh:
                callers[sub].append(ast.parse(fh.read()))
    per_module, all_defs, forwards = {}, [], {}
    trees, refs, roots = {}, {}, set()
    for name in modules:
        with open(os.path.join(pkg, name)) as fh:
            trees[name] = ast.parse(fh.read())
        defs, fwd = definitions(trees[name])
        per_module[name] = defs
        all_defs += defs
        for key, targets in fwd.items():
            forwards.setdefault(key, set()).update(targets)
        tops, rest = top_level(trees[name])
        for key, names in tops.items():
            refs.setdefault(key, set()).update(names)
        roots |= rest
    for tree in callers["specxbench"]:
        roots |= _names(tree)
    reach_own = reached(roots, refs)
    reach_tests = reached(set().union(*map(_names, callers["tests"])), refs)
    own = callers["src"] + callers["specxbench"]
    by_all = settings(own + callers["tests"], all_defs, forwards)
    by_own = settings(own, all_defs, forwards)
    lines = []
    total_code = total_defaults = 0
    marks, reach = collections.Counter(), collections.Counter()
    for name in modules:
        code = code_lines(os.path.join(pkg, name))
        total_code += code
        lines.append(f"{name}: {code} code lines")
        for d in per_module[name]:
            for param, default in d.defaults:
                total_defaults += 1
                mark = ("" if _is_set(d, param, *by_own)
                        else "tests-only" if _is_set(d, param, *by_all)
                        else "unset")
                marks[mark] += 1
                lines.append(f"  {d.label}.{param} = {default}"
                             + (f"  {mark}" if mark else ""))
        for node in trees[name].body:
            if (isinstance(node, FUNCS + (ast.ClassDef,))
                    and node.name not in reach_own):
                mark = ("tests-only" if node.name in reach_tests
                        else "unreached")
                kind = "class" if isinstance(node, ast.ClassDef) else "def"
                reach[mark] += 1
                lines.append(f"  {kind} {node.name}  {mark}")
    lines.append(f"total: {total_code} code lines, {total_defaults} "
                 f"defaulted parameters and fields, {marks['unset']} unset, "
                 f"{marks['tests-only']} tests-only; "
                 f"{reach['tests-only']} functions and classes tests-only, "
                 f"{reach['unreached']} unreached")
    return lines


def _is_set(d, param, set_by, assigned):
    return param in set_by.get(d.name, ()) or (
        d.is_dataclass and param in assigned)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: src_size.py [REPO_ROOT]", file=sys.stderr)
        return 2
    root = args[0] if args else os.path.join(os.path.dirname(
        os.path.abspath(__file__)), os.pardir)
    print("\n".join(report(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
