# Parse a Prometheus text scrape on stdin and assert each
# "name{label=value,...}OP N" expression (OP: == >= >). A series
# expression matching several samples sums them (counters split
# by extra labels). Usage:
#
#   curl -fsS http://HOST/metrics | python3 check_metrics.py 'wfit_session_statements{session=smoke}==60'
import re, sys

samples = []
for line in sys.stdin.read().splitlines():
    if not line:
        continue
    if line.startswith('#'):
        if not (line.startswith('# HELP ') or line.startswith('# TYPE ')):
            sys.exit(f"malformed comment line: {line}")
        continue
    m = re.fullmatch(r'([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)', line)
    if not m:
        sys.exit(f"malformed sample line: {line}")
    name, body, val = m.group(1), m.group(2) or '', m.group(3)
    labels = {}
    for pair in filter(None, body.split(',')):
        k, v = pair.split('=', 1)
        labels[k] = v.strip('"')
    samples.append((name, labels, float(val)))
if not samples:
    sys.exit("empty scrape")

failed = False
for expr in sys.argv[1:]:
    m = re.fullmatch(r'([a-zA-Z_:][a-zA-Z0-9_:]*)\{([^}]*)\}(==|>=|>)([-0-9.]+)', expr)
    if not m:
        sys.exit(f"bad expression: {expr}")
    name, body, op, want = m.group(1), m.group(2), m.group(3), float(m.group(4))
    sel = dict(pair.split('=', 1) for pair in filter(None, body.split(',')))
    vals = [v for (n, l, v) in samples
            if n == name and all(l.get(k) == w for k, w in sel.items())]
    if not vals:
        print(f"FAIL: no series matches {expr}", file=sys.stderr)
        failed = True
        continue
    got = sum(vals)
    ok = (got == want) if op == '==' else (got >= want) if op == '>=' else (got > want)
    print(f"{'ok  ' if ok else 'FAIL'} {expr} (got {got})")
    failed = failed or not ok
sys.exit(1 if failed else 0)
