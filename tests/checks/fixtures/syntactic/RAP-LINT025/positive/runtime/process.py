"""RAP-LINT025 positive: the process executor pickling frames.

Laid out as ``runtime/process.py`` — the parent side of the ring
transport, which writes every frame a worker reads — so the rule's
inclusion scope resolves the same module relpath it sees in ``src``.
A pickled frame on the pipe decodes to the same values, which is why
only the rule catches it.
"""

import pickle


def submit(conn, values, counts):
    conn.send_bytes(pickle.dumps((values, counts)))
