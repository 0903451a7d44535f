"""Property-based tests for the extension modules."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import (
    CoverageCollector,
    evaluate_decision,
    measure_mcdc_coverage,
    suggest_mcdc_vectors,
)
from repro.lang.minic import Interpreter, parse_program
from repro.lang import tokenize
from repro.metrics import measure_tokens, npath_program
from repro.metrics.halstead import maintainability_index


class TestHalsteadProperties:
    @given(st.lists(st.sampled_from(["a", "b", "c", "+", "-", "*", "1",
                                     "2"]),
                    min_size=1, max_size=60))
    def test_volume_nonnegative_and_monotone(self, pieces):
        source = " ".join(pieces)
        metrics = measure_tokens(tokenize(source, strict=False))
        assert metrics.volume >= 0.0
        doubled = measure_tokens(tokenize(source + " " + source,
                                          strict=False))
        assert doubled.volume >= metrics.volume

    @given(st.floats(0, 1e6), st.integers(1, 100), st.integers(1, 10000))
    def test_maintainability_bounds(self, volume, cc, loc):
        value = maintainability_index(volume, cc, loc)
        assert 0.0 <= value <= 100.0


class TestNpathProperties:
    @given(st.integers(1, 10))
    @settings(max_examples=10)
    def test_sequential_ifs_exponential(self, count):
        body = " ".join(f"if (a > {i}) {{ b += 1; }}"
                        for i in range(count))
        program = parse_program(f"int f(int a, int b) {{ {body} "
                                f"return b; }}")
        assert npath_program(program)["f"] == 2 ** count

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=20)
    def test_npath_at_least_one(self, ifs, loops):
        parts = [f"if (a > {i}) {{ b += 1; }}" for i in range(ifs)]
        parts += [f"while (b > {i * 7}) {{ b -= 1; }}"
                  for i in range(loops)]
        program = parse_program(
            f"int f(int a, int b) {{ {' '.join(parts)} return b; }}")
        assert npath_program(program)["f"] >= 1


DECISION_SOURCES = [
    "int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }",
    "int f(int a, int b) { if (a > 0 || b > 0) { return 1; } return 0; }",
    "int f(int a, int b, int c) { if (a > 0 && (b > 0 || c > 0)) "
    "{ return 1; } return 0; }",
    "int f(int a, int b, int c) { if ((a > 0 || b > 0) && c > 0) "
    "{ return 1; } return 0; }",
]


class TestSuggestionProperties:
    @given(st.sampled_from(DECISION_SOURCES),
           st.lists(st.tuples(st.booleans(), st.booleans(),
                              st.booleans()),
                    max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_following_all_suggestions_completes_mcdc(self, source,
                                                      seed_vectors):
        program = parse_program(source)
        collector = CoverageCollector(program)
        interpreter = Interpreter(program, tracer=collector)
        arity = len(program.functions[0].parameters)
        for vector in seed_vectors:
            interpreter.run("f", [1 if value else 0
                                  for value in vector[:arity]])
        for _ in range(8):
            suggestions = suggest_mcdc_vectors(collector)
            if not suggestions:
                break
            for suggestion in suggestions:
                for assignment in suggestion.needed_assignments:
                    interpreter.run("f", [1 if value else 0
                                          for value in assignment])
        assert measure_mcdc_coverage(collector).percent == 100.0

    @given(st.sampled_from(DECISION_SOURCES),
           st.lists(st.booleans(), min_size=3, max_size=3))
    @settings(max_examples=30)
    def test_evaluate_decision_matches_interpreter(self, source, values):
        program = parse_program(source)
        decision = program.decisions[0]
        arity = len(program.functions[0].parameters)
        assignment = tuple(values[:arity])
        # The leaf conditions are `x > 0` over the parameters in order,
        # so a truth assignment maps directly to arguments.
        outcome, _ = evaluate_decision(decision, assignment)
        interpreter = Interpreter(program)
        result = interpreter.run("f", [1 if value else 0
                                       for value in assignment])
        assert bool(result) == outcome


class TestCorpusFactoryProperties:
    @given(st.integers(0, 10 ** 6), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_factory_deterministic_per_seed(self, seed, target):
        from repro.corpus.functions import FunctionFactory, \
            FunctionRequest
        first = FunctionFactory(random.Random(seed)).render(
            FunctionRequest(name="P", complexity=target))
        second = FunctionFactory(random.Random(seed)).render(
            FunctionRequest(name="P", complexity=target))
        assert first == second


class TestUnparseProperties:
    OPERATORS = ["+", "-", "*", "/", "%", "<", ">", "==", "!=", "&&",
                 "||", "&", "|", "^"]

    @given(st.recursive(
        st.sampled_from(["a", "b", "c", "2", "3", "7"]),
        lambda inner: st.tuples(
            inner, st.sampled_from(["+", "-", "*", "/", "%", "<", ">",
                                    "==", "!=", "&&", "||", "&", "|",
                                    "^"]),
            inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        max_leaves=12))
    @settings(max_examples=60, deadline=None)
    def test_unparse_roundtrip_preserves_semantics(self, expression):
        from repro.lang.minic import (Interpreter, parse_program,
                                      unparse_expression)
        source = (f"int f(int a, int b, int c) "
                  f"{{ return {expression}; }}")
        program = parse_program(source)
        rendered = unparse_expression(
            program.functions[0].body.statements[0].value)
        reprogram = parse_program(
            f"int f(int a, int b, int c) {{ return {rendered}; }}")

        def outcome(target, args):
            try:
                return ("v", Interpreter(target).run("f", list(args)))
            except Exception as error:  # noqa: BLE001
                return ("e", type(error).__name__)

        for args in [(1, 2, 3), (-5, 4, 0), (0, 0, 0), (9, -9, 2)]:
            assert outcome(program, args) == outcome(reprogram, args)

    @given(st.sampled_from(list(range(10))))
    @settings(max_examples=10, deadline=None)
    def test_yolo_roundtrip_statement_counts(self, index):
        from repro.dnn.minic_yolo import YOLO_FILES
        from repro.lang.minic import parse_program, unparse_program
        filename = sorted(YOLO_FILES)[index]
        original = parse_program(YOLO_FILES[filename])
        reparsed = parse_program(unparse_program(original))
        assert reparsed.statement_count == original.statement_count
        assert reparsed.decision_count == original.decision_count


class TestSingleExitProperties:
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=1, max_size=5),
           st.lists(st.integers(-100, 100), min_size=4, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_transform_preserves_behaviour(self, guards, probes):
        from repro.lang.minic import (Interpreter, parse_program,
                                      to_single_exit)
        body = []
        for threshold, value in guards:
            body.append(f"if (x > {threshold}) {{ return {value}; }}")
            body.append(f"x = x + {abs(value) % 7 + 1};")
        body.append("return x;")
        source = f"int f(int x) {{ {' '.join(body)} }}"
        program = parse_program(source)
        text, report = to_single_exit(program)
        assert report.transformed == ["f"]
        rewritten = parse_program(text)
        assert text.count("return") == 1
        for probe in probes:
            assert Interpreter(program).run("f", [probe]) == \
                Interpreter(rewritten).run("f", [probe])


def _on_cycle_brute_force(graph):
    """Nodes that reach themselves through at least one call edge."""
    on_cycle = set()
    for node in graph:
        seen, frontier = set(), list(graph[node])
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(graph.get(current, ()))
        if node in seen:
            on_cycle.add(node)
    return on_cycle


#: Call graphs over a small name pool: self-loops, cycles of every
#: length, and callees that are not graph keys (external functions).
call_graphs = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.sets(st.sampled_from("abcdefghij"), max_size=4), max_size=8)


class TestRecursionDetectionProperties:
    @given(call_graphs)
    @settings(max_examples=300, deadline=None)
    def test_tarjan_matches_reachability(self, graph):
        from repro.checkers.unitdesign import _functions_on_cycles
        assert _functions_on_cycles(graph) == _on_cycle_brute_force(graph)

    def test_long_chain_does_not_recurse(self):
        from repro.checkers.unitdesign import _functions_on_cycles
        names = [f"f{index}" for index in range(5000)]
        graph = {name: {callee} for name, callee in zip(names, names[1:])}
        graph[names[-1]] = {names[0]}
        assert _functions_on_cycles(graph) == set(names)
