#!/usr/bin/env python3
"""Share of gprof self time per simulator layer, to cross-check est_share.

Reads a flat profile (`gprof -b -p BINARY gmon.out`) and sums the self
seconds of the functions whose names fall in each gridmon layer.
Library code outside the gridmon namespaces (libc string, ctype and
allocator routines, non-template libstdc++) has no caller attribution in
a flat profile, so its time is reported on its own line: a layer's share
of sampled time is a lower bound, and the layer plus the library line an
upper bound. Link the profiled binary statically, or gprof drops
shared-library samples entirely.

    python3 perfbench/gprof_share.py flat.txt
"""

import argparse
import re
import sys

LAYERS = ["classad", "ldap", "sim", "net", "host", "mds", "hawkeye", "core"]

ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.*)$")


# The LDAP entry's attribute map (std::map<std::string,
# std::vector<std::string>>) carries no gridmon name in its symbol.
LDAP_ATTR_MAP = "std::_Rb_tree<std::__cxx11::basic_string"


def layer_of(name):
    """The first layer whose namespace the symbol mentions (standard-library
    templates instantiated over a layer's types count for that layer)."""
    for layer in LAYERS:
        if ("gridmon::%s::" % layer) in name:
            return layer
    if name.startswith(LDAP_ATTR_MAP) and "vector<std::__cxx11" in name:
        return "ldap"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("flat")
    args = ap.parse_args()
    totals = {layer: 0.0 for layer in LAYERS}
    unresolved = other = 0.0
    with open(args.flat) as f:
        for line in f:
            m = ROW.match(line)
            if not m:
                continue
            self_s, name = float(m.group(3)), m.group(4).strip()
            if name == "_init":
                unresolved += self_s
                continue
            layer = layer_of(name)
            if layer is None:
                other += self_s
            else:
                totals[layer] += self_s
    attributed = sum(totals.values()) + other
    sampled = attributed + unresolved
    print("sampled %.2f s, attributed %.2f s, unresolved (_init) %.2f s" % (
        sampled, attributed, unresolved))
    print("  library  %6.2f s  %5.1f%% of sampled (libc / libstdc++ code and the"
          " harness, callers unknown)" % (other, 100 * other / sampled))
    for layer in LAYERS:
        if totals[layer] > 0:
            print("  %-8s %6.2f s  %5.1f%% of attributed  %5.1f%% of sampled" % (
                layer, totals[layer], 100 * totals[layer] / attributed,
                100 * totals[layer] / sampled))
    return 0


if __name__ == "__main__":
    sys.exit(main())
