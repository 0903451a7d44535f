"""Wire protocol: request validation and deterministic encoding."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import (
    VERBS,
    encode_reply,
    error_reply,
    parse_request,
)
from repro.serve.protocol import FindingsBody, canonical

from .conftest import plain


class TestParseRequest:
    def test_valid_request_passes_through(self):
        request = parse_request('{"id": 7, "verb": "assess", "path": "x"}')
        assert request == {"id": 7, "verb": "assess", "path": "x"}

    def test_id_is_optional(self):
        assert parse_request('{"verb": "ping"}') == {"verb": "ping"}

    def test_every_advertised_verb_parses(self):
        for verb in VERBS:
            assert parse_request(json.dumps({"verb": verb}))["verb"] == verb

    def test_not_json(self):
        with pytest.raises(ServeError, match="not valid JSON"):
            parse_request("nope{")

    def test_not_an_object(self):
        with pytest.raises(ServeError, match="must be a JSON object"):
            parse_request('["assess"]')

    def test_non_scalar_id(self):
        with pytest.raises(ServeError, match="id must be a JSON scalar"):
            parse_request('{"id": [1], "verb": "ping"}')

    def test_missing_verb(self):
        with pytest.raises(ServeError, match="no verb"):
            parse_request('{"id": 1}')

    def test_unknown_verb(self):
        with pytest.raises(ServeError, match="unknown verb 'frobnicate'"):
            parse_request('{"verb": "frobnicate"}')


class TestEncoding:
    def test_error_reply_shape(self):
        reply = error_reply(3, "boom")
        assert reply == {"id": 3, "ok": False, "degraded": False,
                         "error": "boom"}

    def test_degraded_error_reply(self):
        assert error_reply(None, "x", degraded=True)["degraded"] is True

    def test_encode_is_deterministic(self):
        a = encode_reply({"b": 1, "a": {"d": 2, "c": 3}})
        b = encode_reply({"a": {"c": 3, "d": 2}, "b": 1})
        assert a == b
        assert a == '{"a":{"c":3,"d":2},"b":1}\n'

    def test_encode_round_trips(self):
        reply = {"id": 1, "ok": True, "findings": ["a", "b"]}
        assert json.loads(encode_reply(reply)) == reply


class TestSplicedFindings:
    FINDINGS = {"casts": ["a.cc:1: [C1] cast", 'b.cc:2: [C2] "q" \u00e9'],
                "naming": []}

    def body(self):
        text = canonical(self.FINDINGS)
        middle = text.index("],") + 1
        return FindingsBody(self.FINDINGS, [text[:middle], text[middle:]])

    @pytest.mark.parametrize("extra", [
        {},
        {"id": 1, "ok": True},
        {"finding": 0, "findingz": [1, {"b": 2, "a": 1}]},
        {"degraded": False, "seconds": 0.25, "verdicts": {"n": 1, "a": 0}},
    ])
    def test_reply_with_a_body_is_plain_json_dumps(self, extra):
        reply = {**extra, "findings": self.body()}
        assert encode_reply(reply) == plain(reply)
        assert json.loads(encode_reply(reply))["findings"] == \
            self.FINDINGS

    @pytest.mark.parametrize("reply", [
        {"id": 2, "ok": True, "pong": True},
        {"id": 3, "ok": True,
         "findings": {"new": ["x"], "fixed": [], "rules_changed": []}},
    ])
    def test_reply_without_a_body_is_plain_json_dumps(self, reply):
        assert encode_reply(reply) == plain(reply)

    def test_body_text_is_spliced_not_reencoded(self):
        reply = {"ok": True,
                 "findings": FindingsBody({}, ['{"kept"', ":[]}"])}
        assert encode_reply(reply) == '{"findings":{"kept":[]},"ok":true}\n'
