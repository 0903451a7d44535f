"""``repro-serve --jobs N``: pooled replies equal serial ones.

With ``jobs > 1`` each served assessment fans its per-file work out
over worker processes; the replies must not depend on that.
"""

import json

from repro.corpus import apollo_spec, generate_corpus
from repro.serve import AssessmentServer, encode_reply

from .conftest import GOTO, write

#: Reply keys that legitimately differ between two identical assesses.
VOLATILE = ("seconds", "cache", "run", "id")


def stable(reply):
    assert reply["ok"], reply
    return encode_reply({key: value for key, value in reply.items()
                         if key not in VOLATILE})


def assess(server):
    return stable(server.handle_line(json.dumps({"id": 1,
                                                 "verb": "assess"})))


def test_pooled_replies_equal_serial(tmp_path):
    root = tmp_path / "tree"
    sources = generate_corpus(apollo_spec(scale=0.02)).sources()
    for path, text in sources.items():
        write(root, path, text)
    edited = sorted(sources)[0]
    serial = AssessmentServer(str(root), jobs=1)
    pooled = AssessmentServer(str(root), jobs=2)

    cold = [assess(serial), assess(pooled)]
    write(root, edited, sources[edited] + GOTO)
    edit = [assess(serial), assess(pooled)]
    noop = [assess(serial), assess(pooled)]

    assert cold[0] == cold[1]
    assert edit[0] == edit[1]
    assert noop[0] == noop[1]
    assert edit[0] != cold[0]
