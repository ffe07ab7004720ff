#!/usr/bin/env bash
# Wire-protocol smoke test (docs/PROTOCOL.md): one live proteus-cached,
# driven over raw sockets by python3 the way a stock client would:
#
#   1. a set/get round trip;
#   2. a C<hex8>-stamped set, echoed on an opted-in get (and a wrong stamp
#      refused with SERVER_ERROR bad-checksum);
#   3. a stamped noreply set answers nothing and a get returns its value,
#      while a wrong-stamp noreply set is refused silently and a get then
#      answers END; a noreply set and a get of its key in one write (the
#      bytes a corked client fill puts on the wire) answer the get alone;
#   4. a flagged counter keeps its flags through incr and decr;
#   5. a binary-protocol GET frame sees EOF, not a reply;
#   6. a set larger than the budget gets SERVER_ERROR object too large for
#      cache, and the connection stays usable;
#   7. a 128 KiB line with no CRLF gets CLIENT_ERROR line too long, then EOF;
#   8. a fresh connection is still served afterwards.
#
#   scripts/wire_smoke.sh [--build-dir=build]
set -euo pipefail

BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    *) echo "usage: scripts/wire_smoke.sh [--build-dir=D]" >&2; exit 2 ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
CACHED="$BUILD_DIR/tools/proteus-cached"
[[ -x "$CACHED" ]] || { echo "wire_smoke.sh: $CACHED not built" >&2; exit 1; }

LOG="$(mktemp)"
"$CACHED" --port=0 --mem-mb=1 2> "$LOG" &
PID="$!"
cleanup() {
  kill "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true
  rm -f "$LOG"
}
trap cleanup EXIT

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "daemon never bound a port"; cat "$LOG"; exit 1; }

python3 - "$PORT" <<'EOF'
import socket
import sys
import time

PORT = int(sys.argv[1])


def crc32c(data):
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def connect():
    s = socket.create_connection(("127.0.0.1", PORT), timeout=5)
    s.settimeout(5)
    return s


def read_until(s, terminator):
    data = b""
    while not data.endswith(terminator):
        chunk = s.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def read_to_eof(s):
    data = b""
    try:
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            data += chunk
    except ConnectionResetError:
        pass
    return data


def expect(what, got, want):
    if got != want:
        sys.exit("FAIL %s: got %r, want %r" % (what, got, want))
    print("ok  %s" % what)


s = connect()
s.sendall(b"set k 0 0 5\r\nhello\r\n")
expect("set stores", read_until(s, b"\r\n"), b"STORED\r\n")
s.sendall(b"get k\r\n")
expect("get round-trips", read_until(s, b"END\r\n"),
       b"VALUE k 0 5\r\nhello\r\nEND\r\n")

stamp = b"C%08x" % crc32c(b"hello")
s.sendall(b"set ck 0 0 5 " + stamp + b"\r\nhello\r\n")
expect("stamped set stores", read_until(s, b"\r\n"), b"STORED\r\n")
s.sendall(b"get ck C00000000\r\n")
expect("opted-in get echoes the stamp", read_until(s, b"END\r\n"),
       b"VALUE ck 0 5 " + stamp + b"\r\nhello\r\nEND\r\n")
s.sendall(b"set ck 0 0 5 C%08x\r\nhello\r\n" % (crc32c(b"hello") ^ 1))
expect("wrong stamp is refused", read_until(s, b"\r\n"),
       b"SERVER_ERROR bad-checksum\r\n")

# A client fill: noreply, then its meta tokens. The get's reply must be the
# first bytes the connection sees after it.
s.sendall(b"set nk 0 0 5 noreply " + stamp + b" E%016x\r\nhello\r\n" % 1)
s.sendall(b"get nk\r\n")
expect("stamped noreply set answers nothing, get returns it",
       read_until(s, b"END\r\n"), b"VALUE nk 0 5\r\nhello\r\nEND\r\n")
s.sendall(b"set nb 0 0 5 noreply C%08x E%016x\r\nhello\r\n" %
          (crc32c(b"hello") ^ 1, 1))
s.sendall(b"get nb\r\n")
expect("wrong-stamp noreply set is refused silently",
       read_until(s, b"END\r\n"), b"END\r\n")
# A corked fill leaves in the same transmit as the connection's next request.
cork = b"C%08x" % crc32c(b"corked")
s.sendall(b"set ok 0 0 6 noreply " + cork + b" E%016x\r\ncorked\r\n" % 1 +
          b"get ok\r\n")
expect("noreply set and get in one write answer only the get",
       read_until(s, b"END\r\n"), b"VALUE ok 0 6\r\ncorked\r\nEND\r\n")

s.sendall(b"set c 5 0 2\r\n10\r\n")
expect("flagged counter stores", read_until(s, b"\r\n"), b"STORED\r\n")
s.sendall(b"incr c 1\r\n")
expect("incr answers the new value", read_until(s, b"\r\n"), b"11\r\n")
s.sendall(b"get c\r\n")
expect("incr keeps the flags", read_until(s, b"END\r\n"),
       b"VALUE c 5 2\r\n11\r\nEND\r\n")
s.sendall(b"decr c 2\r\n")
expect("decr answers the new value", read_until(s, b"\r\n"), b"9\r\n")
s.sendall(b"get c\r\n")
expect("decr keeps the flags", read_until(s, b"END\r\n"),
       b"VALUE c 5 1\r\n9\r\nEND\r\n")

b = connect()
start = time.monotonic()
b.sendall(b"\x80" + bytes(2) + b"\x03" + bytes(7) + b"\x03" + bytes(12) +
          b"key")
expect("binary GET frame sees EOF", read_to_eof(b), b"")
if time.monotonic() - start > 2:
    sys.exit("FAIL binary client waited %.1f s for EOF" %
             (time.monotonic() - start))
b.close()

big = 2 << 20  # twice the 1 MB budget
s.sendall(b"set big 0 0 %d\r\n" % big + b"x" * big + b"\r\n")
expect("oversized set is refused", read_until(s, b"\r\n"),
       b"SERVER_ERROR object too large for cache\r\n")
s.sendall(b"get big\r\n")
expect("refused set stored nothing, connection kept",
       read_until(s, b"END\r\n"), b"END\r\n")
s.close()

t = connect()
try:
    t.sendall(b"a" * (128 << 10))
except (BrokenPipeError, ConnectionResetError):
    pass  # the daemon may close before the whole run is written
expect("unterminated line is refused, then EOF", read_to_eof(t),
       b"CLIENT_ERROR line too long\r\n")
t.close()

f = connect()
f.sendall(b"version\r\n")
expect("fresh connection is served", read_until(f, b"\r\n"),
       b"VERSION proteus-1.0\r\n")
f.close()
print("WIRE SMOKE PASSED")
EOF
