"""Bytecodes per operation, per layer, over one ledger workload's timed section.

    python benchmarks/opcount.py --workload read-uniform [--seed 42]
    PYTHONPATH=<tree>/src python benchmarks/opcount.py --workload fill-bolt

The ledger's ``workloads.py`` builds the inputs, the stack and the preload
at ``--smoke`` scale exactly as ``run.py --smoke`` does; only the timed
section runs under ``sys.settrace`` with opcode events.  Every bytecode the
interpreter executes there is attributed to the layer of the module whose
code object ran it: ``repro.<package>`` for the library, ``ledger`` for the
ledger's workload code, ``other`` for the standard library.  C functions execute no
bytecode and are not counted, so a count prices Python work, not time.

The process re-executes itself with ``PYTHONHASHSEED=0`` (string hashes
order sets and dict probes), so two runs of one tree print the same JSON;
``PYTHONPATH`` picks the library measured, as for ``benchmarks/parity.py``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER_DIR = os.path.join(HERE, "ledger")

sys.path.append(os.path.join(os.path.dirname(HERE), "src"))  # PYTHONPATH wins
sys.path.insert(0, LEDGER_DIR)

import workloads  # noqa: E402


def layer_of(code, module):
    """The layer a code object's bytecodes are charged to."""
    if module.startswith("repro."):
        return ".".join(module.split(".", 2)[:2])
    return "ledger" if code.co_filename.startswith(LEDGER_DIR) else "other"


class OpcodeCounter:
    """A ``sys.settrace`` hook counting opcode events per layer."""

    def __init__(self):
        self.counts = {}
        self._local = {}  # code object -> its frames' local trace function

    def _local_for(self, frame):
        code = frame.f_code
        layer = layer_of(code, frame.f_globals.get("__name__") or "")
        cell = self.counts.setdefault(layer, [0])

        def local(_frame, event, _arg):
            if event == "opcode":
                cell[0] += 1
            return local

        self._local[code] = local
        return local

    def __call__(self, frame, _event, _arg):
        # Called on every call and every generator resume.
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local.get(frame.f_code) or self._local_for(frame)


def count(workload, seed):
    """Run ``workload``'s smoke-scale timed section under the counter."""
    spec = workloads.SPECS[workload]
    inputs = workloads.build_inputs(spec, seed, smoke=True)
    rig = workloads.build_rig(spec, smoke=True)
    workloads.preload(rig, inputs)
    counter = OpcodeCounter()
    sys.settrace(counter)
    try:
        timed = workloads.run_timed(rig, spec, inputs)
    finally:
        sys.settrace(None)
    workloads.close(rig)
    ops = len(timed.latencies)
    totals = {layer: cell[0] for layer, cell in sorted(counter.counts.items())}
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "ops": ops,
        "failed": timed.failed,
        "bytecodes_per_op": {layer: round(n / ops, 2) for layer, n in totals.items()},
        "total_per_op": round(sum(totals.values()) / ops, 2),
    }


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    print(json.dumps(count(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
