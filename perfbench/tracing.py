"""Spans and counts at the layer boundaries of ``biconf``, recorded from
outside the program by wrapping its public functions.

A wrapper replaces a function at every module attribute bound to it, so
calls through ``from .x import f`` names are traced too.  The defining
binding in ``biconf.expr`` is left alone: ``eval_jet`` and
``eval_value`` recurse through it, and only the outermost call (made
from ``biconf.fields``) is a span.  A call nested directly inside a span
of the same name (``ProfileField.log_jet`` -> ``ScalarField.log_jet``)
is counted once.
"""

from __future__ import annotations

import functools
from time import perf_counter

# span name -> (module, attribute) or (module, class, method) of the original
FUNCTIONS = {
    "expr.parse_expr": ("expr", "parse_expr"),
    "expr.eval_jet": ("expr", "eval_jet"),
    "expr.eval_value": ("expr", "eval_value"),
    "fields.value": ("fields", "ScalarField", "__call__"),
    "fields.jet": ("fields", "ScalarField", "jet"),
    "fields.log_jet": ("fields", "ScalarField", "log_jet"),
    "deform.log_data": ("deform", "DeformationPair", "log_data"),
    "deform.ricci_frame": ("deform", "ricci_frame"),
    "deform.frame_to_coords": ("deform", "frame_to_coords"),
    "oracle.ricci_fd": ("oracle", "ricci_fd"),
    "oracle.christoffel": ("oracle", "christoffel"),
    "oracle.metric_value": ("oracle", "MetricField", "value"),
    "oracle.metric_partials": ("oracle", "MetricField", "partials"),
    "oracle.invert4": ("oracle", "invert4"),
    "oracle.einstein_residual_fd": ("oracle", "einstein_residual_fd"),
    "families.einstein_residuals": ("families", "einstein_residuals"),
    "families.single_param_residuals": ("families", "single_param_residuals"),
    "families.integrate_rho": ("families", "integrate_rho"),
    "families.integrate_warped": ("families", "integrate_warped"),
    "families.family_fields": ("families", "family_fields"),
    "families.end_diagnostics": ("families", "end_diagnostics"),
    "cli.main": ("cli", "main"),
}

# methods overridden in subclasses that belong to the same span
OVERRIDES = {"fields.log_jet": [("fields", "ProfileField", "log_jet")]}

# functions returning a Trajectory; their accepted steps are counted
STEPPERS = ("families.integrate_rho", "families.integrate_warped")

MODULES = ("expr", "fields", "deform", "oracle", "families", "cli")


class Tracer:
    """In-memory spans (id, name, start, end, parent id, request id) and
    per-name totals: calls, self time, exceptions raised."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans = []
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.failed = dict.fromkeys(FUNCTIONS, 0)
        self.steps = dict.fromkeys(STEPPERS, 0)
        self.field_evals = 0  # fields-layer calls made from outside that layer
        self.request = None
        self._stack = []  # [name, span id, time covered by child spans]
        self._next_id = 1
        self._origin = perf_counter()

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        if name.startswith("fields.") and not (stack and stack[-1][0].startswith("fields.")):
            self.field_evals += 1
        span_id = self._next_id
        self._next_id += 1
        frame = [name, span_id, 0.0]
        parent = stack[-1][1] if stack else 0
        stack.append(frame)
        failed = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            self.failed[name] += failed
            if self.keep_spans:
                o = self._origin
                self.spans.append((span_id, name, start - o, end - o, parent, self.request))
        if name in STEPPERS:
            self.steps[name] += len(result) - 1
        return result

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,request\n")
            for span in self.spans:
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % span)


class installed:
    """Context manager: route the traced functions of the ``biconf``
    package through ``tracer`` and restore the originals on exit."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self._undo = []

    def _wrapper(self, name, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        mods = {m: getattr(self.package, m) for m in MODULES}
        bindings = [self.package] + [mods[m] for m in MODULES if m != "expr"]
        for name, where in FUNCTIONS.items():
            if len(where) == 3:
                for mod, cls, meth in [where] + OVERRIDES.get(name, []):
                    owner = getattr(mods[mod], cls)
                    self._patch(owner, meth, self._wrapper(name, owner.__dict__[meth]))
                continue
            original = getattr(mods[where[0]], where[1])
            wrapped = self._wrapper(name, original)
            for module in bindings:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False
