"""The one writer of JSON documents: ``json.dumps(doc, indent=2) + "\n"`` in pieces.

A document is a non-empty dict of top-level members.  A member is laid
out by ``json.dumps``, unless its value is declared as ``Rows``: a long
list whose records all share one layout.  Those are laid out a batch of
records at a time, each batch by one ``%`` of the record template,
repeated, over the fields of all its records, so neither the list's text
nor a second copy of the document is ever held.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _enc
from typing import Callable, Iterator, NamedTuple

BATCH = 1024  # records per piece of a list


class Rows(NamedTuple):
    """A list member declared by its record layout.

    ``template`` is one record as ``json.dumps(indent=2)`` lays out an
    item of a top-level list, with a ``%`` field per value, and
    ``fields(lo, hi)`` gives the fields of records lo..hi-1, record by
    record, with strings already quoted as ``json.dumps`` quotes them
    (``json.encoder.encode_basestring_ascii``).
    """

    template: str
    count: int
    fields: Callable[[int, int], tuple]


def pieces(doc: dict) -> Iterator[str]:
    """The text ``json.dumps(doc, indent=2) + "\n"``, a member or a batch at a time."""
    yield "{\n"
    for n, (key, value) in enumerate(doc.items()):
        if n:
            yield ",\n"
        if not isinstance(value, Rows):
            yield json.dumps({key: value}, indent=2)[2:-2]
            continue
        yield f"  {_enc(key)}: [" + ("\n" if value.count else "]")
        for lo in range(0, value.count, BATCH):
            hi = min(lo + BATCH, value.count)
            yield ",\n".join([value.template] * (hi - lo)) % value.fields(lo, hi)
            yield ",\n" if hi < value.count else "\n  ]"
    yield "\n}\n"
