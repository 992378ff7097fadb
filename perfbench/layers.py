"""Which program calls the traced run wraps, and under which layer name.

Layer names follow the program's modules: ``service`` (gateway facade),
``wal``, ``fleet``, ``core``, ``db``, ``advisor``, ``astro``,
``envelopes`` and ``server``. :func:`install` wraps the calls made in
any process running the program; :func:`install_server` adds the HTTP
serving path, and runs only inside the traced server launcher.
"""

from __future__ import annotations

import json

__all__ = ["install", "install_server", "CodecReplay"]


class _Proxy:
    """Stands in for a stdlib module inside one program module, so that
    one of its functions can be traced there without touching the
    process-wide module."""

    def __init__(self, module) -> None:
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _proxy(tracer, module, name: str, wrapped: str, label: str) -> None:
    proxy = _Proxy(getattr(module, name))
    setattr(proxy, wrapped, getattr(proxy._module, wrapped))
    tracer.substitute(module, name, proxy)
    tracer.wrap(proxy, wrapped, label)


def _kind(args, kwargs) -> str:
    return f"service.dispatch:{type(args[1]).__name__}"


def _query(args, kwargs) -> str:
    return f"db.query:{args[2].query}"


def _units(args, kwargs, result) -> dict:
    return {"units": result[1]} if result is not None else {}


def install(tracer) -> None:
    """Wrap the layer calls of the pricing service and everything under it."""
    from repro.advisor import OptimizationAdvisor
    from repro.core.fastshapley import IncrementalShapley
    from repro.fleet.engine import FleetEngine
    from repro.gateway import service
    from repro.gateway.wal import checkpoint, recovery, writer

    PricingService = service.PricingService
    tracer.wrap(PricingService, "_dispatch_one", _kind)
    tracer.wrap(PricingService, "_dispatch_batch", "service.batch")
    tracer.wrap(PricingService, "_execute_query", _query, after=_units)
    tracer.wrap(writer.WalWriter, "_append", "wal.append")
    _proxy(tracer, writer, "os", "fsync", "wal.fsync")
    tracer.wrap(checkpoint, "capture_state", "wal.capture")
    tracer.wrap(checkpoint, "write_checkpoint", "wal.write")
    tracer.wrap(recovery, "read_log", "wal.read")
    tracer.wrap(recovery, "load_checkpoint", "wal.load")
    tracer.wrap(recovery, "restore_service", "wal.restore")
    tracer.wrap(recovery, "_replay_record", "wal.replay")
    tracer.wrap(FleetEngine, "ingest_many", "fleet.ingest")
    tracer.wrap(FleetEngine, "advance_slot", "fleet.slot")
    tracer.wrap(IncrementalShapley, "apply_and_solve", "core.solve")
    tracer.wrap(OptimizationAdvisor, "advise", "advisor.advise")


def install_server(tracer) -> None:
    """Wrap the HTTP serving path and the CLI's universe load.

    ``server.read`` (reading and parsing one request off a keep-alive
    socket) and ``server.request`` (everything after) root each
    request's server-side tree under the client's ``client.send`` span,
    joined by the ``X-Bench-Rid`` header. ``server.flush`` is one group
    commit; it records the request ids it served, because it runs in its
    own task on behalf of several requests.
    """
    from repro import cli
    from repro.gateway import server
    from spans import current_rid

    rid_of: dict = {}

    def request_root(args, kwargs):
        rid = args[4].get("x-bench-rid")  # (self, writer, method, path, headers, ...)
        rid = int(rid) if rid is not None else None
        return (f"n{rid}" if rid is not None else None), rid, {}

    def new_tree(args, kwargs):
        return None, None, {}

    def read_home(args, kwargs, result):
        rid = result[2].get("x-bench-rid") if result is not None else None
        return {"parent": f"n{rid}", "rid": int(rid)} if rid is not None else {}

    def flush_root(args, kwargs):
        queue = args[0]._queue
        rids = [rid_of.pop(id(entry.request), None) for entry in queue]
        return None, None, {"rids": rids}

    def note_rid(args, kwargs, result):
        rid = current_rid()
        if result is not None and rid is not None:
            rid_of[id(result)] = rid
        return {}

    GatewayServer = server.GatewayServer
    tracer.wrap(GatewayServer, "_read_request", "server.read", root=new_tree, after=read_home)
    tracer.wrap(GatewayServer, "_handle_api", "server.request", root=request_root)
    tracer.wrap(GatewayServer, "_admit_and_dispatch", "server.admit")
    tracer.wrap(GatewayServer, "_flush", "server.flush", root=flush_root)
    tracer.wrap(GatewayServer, "_write_response", "server.write")
    _proxy(tracer, server, "json", "loads", "envelopes.json")
    tracer.wrap(server, "request_from_dict", "envelopes.decode", after=note_rid)
    tracer.wrap(server, "to_dict", "envelopes.encode")
    tracer.wrap(cli, "_load_universe", "astro.load")


class CodecReplay:
    """The envelopes layer in isolation: each wire body of a workload's
    stream is parsed, decoded, re-encoded and serialized, as the server
    does on every request, with every step traced."""

    def __init__(self, tracer) -> None:
        from repro.gateway.envelopes import request_from_dict, to_dict

        self.loads = json.loads
        self.decode = request_from_dict
        self.encode = to_dict
        self.dumps = json.dumps
        tracer.wrap(self, "loads", "envelopes.json")
        tracer.wrap(self, "decode", "envelopes.decode")
        tracer.wrap(self, "encode", "envelopes.encode")
        tracer.wrap(self, "dumps", "envelopes.json")

    def run(self, bodies) -> None:
        loads, decode, encode, dumps = self.loads, self.decode, self.encode, self.dumps
        for body in bodies:
            dumps(encode(decode(loads(body))))

