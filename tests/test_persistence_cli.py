"""Persistence round trips, manifests, and the command-line surface."""

import functools
import itertools
import json
import os
import time

import pytest

from surplus_lab import checks, cli, estimators, lattice_paths, maps, persistence, samplers
from surplus_lab.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from surplus_lab.maps import TUPLE_ENUMERATION_CAP, entangled_pairings, genus_one_counts
from surplus_lab.samplers import enumerate_maps

from csv_reference import read_csv
from test_samplers import hold_back


class TestPersistence:
    def test_map_roundtrip_m31(self, tmp_path):
        for k, m in enumerate(enumerate_maps(3, 1)):
            path = tmp_path / f"m{k}.json"
            persistence.save_map(m, path)
            m2 = persistence.load_map(path)
            assert m2.canonical_key() == m.canonical_key()
            # saving the loaded map again is byte-identical
            path2 = tmp_path / f"m{k}_again.json"
            persistence.save_map(m2, path2)
            assert path.read_bytes() == path2.read_bytes()

    @staticmethod
    def assert_saved_as_json(m, path):
        """``save_map`` writes the indented ``json.dumps`` bytes; ``load_map`` reads them back."""
        persistence.save_map(m, path)
        expected = json.dumps(m.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()
        assert persistence.load_map(path).canonical_key() == m.canonical_key()

    def test_save_map_bytes_enumerated(self, tmp_path):
        for n in range(1, 5):
            for s in range(3):
                for m in enumerate_maps(n, s):
                    self.assert_saved_as_json(m, tmp_path / "m.json")

    def test_save_map_bytes_sampled(self, tmp_path):
        rng = samplers.RngStream(71)
        for r in range(20):
            m, _ = samplers.sample_uniform_map(1000, 2, rng.substream(r).generator())
            self.assert_saved_as_json(m, tmp_path / "m.json")

    @pytest.mark.parametrize("n,g", [(60, 1), (8, 2)])
    def test_save_map_bytes_crum(self, tmp_path, n, g):
        rng = samplers.RngStream(72 + g)
        saved = 0
        for r in range(6):
            gen = rng.substream(r).generator()
            exc = samplers.sample_uniform_excursion(n, gen)
            try:
                pairing, _, corners = samplers.sample_unicellular_decoration(exc, g, gen)
            except samplers.DegenerateEnsembleError:
                continue
            m, unicellular = maps.unicellular_glue(exc, pairing, corners)
            assert unicellular and m.genus() == g
            self.assert_saved_as_json(m, tmp_path / "m.json")
            saved += 1
        assert saved

    def test_bad_map_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "root": 0, "involution": [1, 0],
                                    "rotation": [[0], [1]]}))
        with pytest.raises(persistence.PersistenceError):
            persistence.load_map(path)

    def test_non_permutation_rotation(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"schema": 1, "root": 0, "involution": [1, 0],
                                    "rotation": [[0], [0]]}))
        with pytest.raises(persistence.PersistenceError):
            persistence.load_map(path)

    def test_load_canonicalizes_rotation_cycles(self, tmp_path):
        # the cycles may be listed in any order, each from any half: the map loads as the
        # same one, with its cycles as insertion lays them down, and saves the same bytes
        rng = samplers.RngStream(73)
        maps_ = [*enumerate_maps(3, 2)] + [
            samplers.sample_uniform_map(200, 2, rng.substream(r).generator())[0] for r in range(3)]
        for m in maps_:
            path, moved = tmp_path / "m.json", tmp_path / "moved.json"
            persistence.save_map(m, path)
            data = m.to_json_dict()
            data["rotation"] = [c[len(c) // 2:] + c[:len(c) // 2] for c in data["rotation"]][::-1]
            assert data["rotation"] != m.rotation_cycles()
            moved.write_text(json.dumps(data))
            m2 = persistence.load_map(moved)
            assert m2.rotation_cycles() == m.rotation_cycles()
            assert m2.canonical_key() == m.canonical_key()
            persistence.save_map(m2, moved)
            assert moved.read_bytes() == path.read_bytes()

    def test_manifest_digests(self, tmp_path):
        man = persistence.new_manifest(5, "demo", {"x": 1}, [])
        target = tmp_path / "data.csv"
        persistence.write_csv(target, ["a"], [[1.5], [2]])
        man.record_output(target)
        man.save(tmp_path / "manifest.json")
        loaded = persistence.load_manifest(tmp_path / "manifest.json")
        assert loaded.outputs == {"data.csv": persistence.sha256_file(target)}
        assert loaded.seed == 5 and loaded.parameters == {"x": 1}

    def test_fmt_17_digits(self):
        assert persistence.fmt(1 / 3) == format(1 / 3, ".17g")
        assert persistence.fmt(7) == "7"


class TestCli:
    def test_usage_error_exit_1(self, capsys):
        assert main(["sample", "excursion"]) == EXIT_USAGE  # missing --n
        assert main(["verify", "--suite", "nonsense"]) == EXIT_USAGE

    def test_io_error_exit_3(self, tmp_path):
        assert main(["explore", "--mode", "bf", "--in", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_IO

    @pytest.mark.parametrize("change", [
        None,  # the file holds [1, 2]
        {"rotation": 5}, {"root": "a"}, {"rotation": [[0, "x"]]}, {"involution": [5, 0]},
        {"rotation": [[0], [1], []]},  # an empty vertex, which loading once dropped
        {"rotation": [1, 0]},  # the rotation system sigma, not its cycles
        {"rotation": [[0], [2]]}, {"rotation": [[0, 0]]}, {"involution": [-1, 0]}])
    def test_malformed_map_file_is_io_error(self, change, tmp_path, capsys):
        # valid JSON of the wrong shape: an i/o error, not a traceback
        data = [1, 2] if change is None else {
            "schema": 1, "root": 0, "involution": [1, 0], "rotation": [[0], [1]], **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["explore", "--mode", "bf", "--in", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        with pytest.raises(persistence.PersistenceError):
            persistence.load_map(path)

    @pytest.mark.parametrize("argv, option", [
        (["estimate", "--target", "radius", "--model", "um", "--n", "8", "--s", "3"], "--s"),
        (["estimate", "--target", "radius", "--n", "8", "--g", "2"], "--g"),
        (["sample", "crum", "--n", "8", "--s", "2"], "--s"),
        (["sample", "map", "--n", "8", "--g", "3"], "--g"),
        (["sample", "tree", "--n", "8", "--s", "0"], "--s"),
        (["enumerate", "--family", "f", "--n", "3", "--s", "1"], "--s"),
        (["enumerate", "--family", "um", "--n", "3", "--s", "1"], "--s"),
        (["enumerate", "--family", "m", "--n", "3", "--g", "1"], "--g")])
    def test_options_a_kind_does_not_read_are_usage_errors(self, argv, option, tmp_path,
                                                           capsys):
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert f"does not read {option}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, parameters", [
        (["sample", "crum", "--n", "8", "--reps", "2"],
         {"kind": "crum", "n": 8, "g": 1, "reps": 2}),
        (["sample", "map", "--n", "8", "--s", "2"], {"kind": "map", "n": 8, "s": 2, "reps": 1}),
        (["sample", "tree", "--n", "8"], {"kind": "tree", "n": 8, "reps": 1}),
        (["enumerate", "--family", "m", "--n", "2"], {"family": "m", "n": 2, "s": 0}),
        (["enumerate", "--family", "f", "--n", "3"], {"family": "f", "n": 3}),
        (["estimate", "--target", "radius", "--model", "um", "--n", "8", "--reps", "20"],
         {"target": "radius", "model": "um", "n": 8, "g": 1, "reps": 20}),
        (["estimate", "--target", "radius", "--n", "8", "--reps", "20"],
         {"target": "radius", "model": "h", "n": 8, "s": 1, "reps": 20}),
        (["explore", "--mode", "df", "--in", "<map>"], {"mode": "df", "in": "<map>"}),
        (["invert", "--tree", "(()())", "--corners", "1,3"],
         {"tree": "(()())", "corners": "1,3", "tags": "", "mode": "bf"}),
        (["counts", "--asymptotics"], {"asymptotics": True}),
        (["selftest"], {}),
        (["verify", "--suite", "sg"], {"suite": "sg"})])
    def test_manifest_records_the_options_a_kind_read(self, argv, parameters, tmp_path):
        # "<map>" stands for a stored map, which explore reads
        stored = str(tmp_path / "m" / "map.json")
        assert main(["invert", "--tree", "(()())", "--corners", "1,3",
                     "--out", str(tmp_path / "m")]) == EXIT_OK
        argv = [stored if a == "<map>" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_OK
        manifest = persistence.load_manifest(tmp_path / "o" / "manifest.json")
        assert manifest.parameters == {k: stored if v == "<map>" else v
                                       for k, v in parameters.items()}
        # a run that reads no --seed, or is given none, records seed 0
        assert manifest.seed == 0

    def test_sample_excursion(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sample", "excursion", "--n", "5", "--reps", "3", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "excursions.txt").read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(set(line) <= {"U", "D"} for line in lines)
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["tree", "excursion"])
    def test_sample_no_reps_writes_an_empty_file(self, kind, tmp_path):
        # no record at all, as enumerate writes for no items, not one empty record
        out = tmp_path / "o"
        assert main(["sample", kind, "--n", "5", "--reps", "0", "--out", str(out)]) == EXIT_OK
        assert (out / f"{kind}s.txt").read_bytes() == b""

    def test_enumerate_m21(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["enumerate", "--family", "m", "--n", "2", "--s", "1",
                     "--out", str(out)]) == EXIT_OK
        assert "count 5" in capsys.readouterr().out

    def test_enumerate_um(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["enumerate", "--family", "um", "--n", "3", "--g", "1",
                     "--out", str(out)]) == EXIT_OK
        # brute unicellular count at n=3 (all corner patterns, not only distinct)
        out_text = capsys.readouterr().out
        assert out_text.startswith("count ")

    def test_explore_invert_roundtrip(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        assert main(["invert", "--tree", "(()())", "--corners", "1,3",
                     "--mode", "bf", "--out", str(out1)]) == EXIT_OK
        out2 = tmp_path / "b"
        assert main(["explore", "--mode", "bf", "--in", str(out1 / "map.json"),
                     "--out", str(out2)]) == EXIT_OK
        data = json.loads((out2 / "exploration.json").read_text())
        assert data["tree"] == "(()())"
        assert data["indices"] == [1, 3]
        assert data["tags"] == [1, 1]

    @pytest.mark.parametrize("corners, tags", [("1,1", [1, 2]), ("1,3,1,3", [1, 1, 2, 2])])
    def test_invert_tags_shared_corners_canonically(self, corners, tags, tmp_path):
        # with no --tags, each corner numbers its ends 1, 2, ... in sorted pair order
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["invert", "--tree", "(()())", "--corners", corners,
                     "--out", str(out1)]) == EXIT_OK
        assert main(["explore", "--mode", "bf", "--in", str(out1 / "map.json"),
                     "--out", str(out2)]) == EXIT_OK
        data = json.loads((out2 / "exploration.json").read_text())
        assert data["indices"] == [int(i) for i in corners.split(",")]
        assert data["tags"] == tags

    @pytest.mark.parametrize("corners, tags", [("3", ""), ("", "1")])
    def test_invert_uneven_decoration_is_usage_error(self, corners, tags, tmp_path, capsys):
        argv = ["invert", "--tree", "((()()))", "--corners", corners, "--tags", tags,
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "o" / "map.json").exists()

    def test_verify_counts_pass(self, tmp_path):
        assert main(["verify", "--suite", "counts", "--n", "8",
                     "--out", str(tmp_path / "v")]) == EXIT_OK

    @pytest.mark.parametrize("argv, name, first", [
        (["verify", "--suite", "sg"], "verify_sg.csv", ["g1-unique", "", "(1,3)(2,4)", "1"]),
        (["selftest"], "selftest.csv", ["bf-roundtrip-n1-s1", "", "1 maps", "1"])])
    def test_exact_suite_verdict_under_ok(self, argv, name, first, tmp_path):
        # an exact check has no value: the 1/0 verdict goes under "ok"
        assert main(argv + ["--out", str(tmp_path / "v")]) == EXIT_OK
        header, rows = read_csv(tmp_path / "v" / name)
        assert header == ["check", "value", "detail", "ok"]
        assert rows[0] == first
        assert all(row[1] == "" and row[3] == "1" for row in rows)

    @pytest.mark.parametrize("argv", [
        ["--suite", "sg", "--n", "99"], ["--suite", "sg", "--seed", "0"],
        ["--suite", "counts", "--s", "2"], ["--suite", "radius", "--threshold", "0.1"],
        ["--suite", "lemma3", "--n", "50"], ["--suite", "jeulin", "--s", "1"]])
    def test_verify_refuses_options_its_suite_does_not_read(self, argv, tmp_path, capsys):
        assert main(["verify", *argv, "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert f"does not read {argv[2]}" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_verify_manifest_records_the_options_its_suite_read(self, tmp_path):
        # the manifest records the seed and the options each suite ran with, defaults resolved
        for argv, seed, parameters in [
                (["--suite", "sg"], 0, {"suite": "sg"}),
                (["--suite", "counts", "--n", "8"], 0, {"suite": "counts", "n": 8}),
                (["--suite", "lemma3", "--reps", "20"], 7,
                 {"suite": "lemma3", "s": 2, "reps": 20}),
                (["--suite", "lemma3", "--s", "2", "--reps", "30", "--seed", "3"], 3,
                 {"suite": "lemma3", "s": 2, "reps": 30})]:
            out = tmp_path / "-".join(argv[1::2])
            assert main(["verify", *argv, "--out", str(out)]) == EXIT_OK
            manifest = persistence.load_manifest(out / "manifest.json")
            assert manifest.parameters == parameters
            assert manifest.seed == seed

    def test_verify_and_selftest_share_the_suite_table(self, tmp_path, monkeypatch):
        calls = []

        def recorder(run):
            @functools.wraps(run)  # keeps the signature, which names the options a suite reads
            def suite(**kwargs):
                calls.append((run.__name__, kwargs))
                return checks.SuiteResult(run.__name__)
            return suite

        for name, _ in cli.SUITES.values():  # each suite is looked up on checks as it runs
            monkeypatch.setattr(checks, name, recorder(getattr(checks, name)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # calls sees every suite
        assert main(["selftest", "--out", str(tmp_path / "st")]) == EXIT_OK
        assert calls == [("bijection_suite", {"n": 4}), ("count_suite", {"n": 8}),
                         ("w1_suite", {"n": 5}), ("psi_suite", {"n": 4}),
                         ("vervaat_suite", {"n": 5}), ("sg_suite", {}),
                         ("gluing_dichotomy_suite", {"n": 4}),
                         ("decoration_count_suite", {"n": 4})]
        calls.clear()
        for suite in cli.SUITES:
            assert main(["verify", "--suite", suite, "--out", str(tmp_path / suite)]) == EXIT_OK
        assert calls == [("bijection_suite", {"n": 5, "s": 2}), ("count_suite", {"n": 10}),
                         ("w1_suite", {"n": 6}), ("psi_suite", {"n": 5}),
                         ("vervaat_suite", {"n": 6}), ("sg_suite", {}),
                         ("gluing_dichotomy_suite", {"n": 5}),
                         ("decoration_count_suite", {"n": 5}),
                         ("radius_invariance_suite", {"n": 1000, "reps": 10_000,
                                                      "seed": 20_240_501}),
                         ("jeulin_suite", {"n": 2000, "reps": 10_000, "seed": 7,
                                           "threshold": None}),
                         ("lemma3_suite", {"s": 2, "reps": 400, "seed": 7})]
        calls.clear()
        assert main(["verify", "--suite", "bijection", "--n", "3", "--s", "1",
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        assert main(["verify", "--suite", "radius", "--n", "7", "--reps", "9", "--seed", "3",
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert calls == [("bijection_suite", {"n": 3, "s": 1}),
                         ("radius_invariance_suite", {"n": 7, "reps": 9, "seed": 3})]

    def test_verify_threshold_zero_is_explicit(self, tmp_path):
        # an explicit zero is not replaced by the default (0.5 at 100 replicates)
        out = tmp_path / "j"
        assert main(["verify", "--suite", "jeulin", "--n", "64", "--reps", "100",
                     "--threshold", "0", "--out", str(out)]) == EXIT_VERIFY
        _, rows = read_csv(out / "verify_jeulin.csv")
        assert rows[0][0] == "jeulin-ks" and rows[0][2:] == ["0", "0"]
        assert persistence.load_manifest(out / "manifest.json").parameters["threshold"] == 0

    @pytest.mark.parametrize("argv", [["--suite", "bijection", "--n", "0"],
                                      ["--suite", "radius", "--reps", "0"],
                                      ["--suite", "bijection", "--s", "0"]])
    def test_verify_size_zero_is_usage_error(self, argv, tmp_path, capsys):
        # a suite at size 0, or the bijections with no surplus edge, would pass vacuously
        assert main(["verify", *argv, "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
        assert not list((tmp_path / "v").glob("*.csv"))

    @pytest.mark.parametrize("suite, n, first", [("dichotomy", 2, 3), ("psi", 1, 2),
                                                 ("w1", 1, 2)])
    def test_verify_below_the_first_size_checked_is_usage_error(self, suite, n, first,
                                                                tmp_path, capsys):
        # these suites start at n = first, so a smaller n would check nothing and pass
        assert main(["verify", "--suite", suite, "--n", str(n),
                     "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert f"n must be >= {first}, got {n}" in capsys.readouterr().err
        assert not list((tmp_path / "v").glob("*.csv"))

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "dichotomy", "--n", "9"], "n=9 exceeds enumeration cap 8"),
        (["--suite", "bijection", "--n", "9", "--s", "1"], "n=9, s=1 too large"),
        (["--suite", "bijection", "--n", "2", "--s", "5"], "n=2, s=5 too large"),
        (["--suite", "bijection", "--n", "8", "--s", "2"], "n=8, s=2 too large"),
        (["--suite", "bijection", "--n", "6", "--s", "3"], "n=6, s=3 too large"),
        (["--suite", "bijection", "--n", "4", "--s", "4"], "n=4, s=4 too large")])
    def test_verify_refuses_a_size_above_its_cap(self, argv, message, tmp_path, capsys,
                                                 monkeypatch):
        # refused before any cell runs: dichotomy at n = 9 would glue about 12.3 million
        # times, and the bijections above their caps would first run every smaller cell
        def no_cell(*args):
            raise AssertionError("a cell ran before the size was checked")

        monkeypatch.setattr(checks, "range_rows", no_cell)
        assert main(["verify", *argv, "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "v").glob("*.csv"))

    def test_verify_jeulin_small_and_deterministic(self, tmp_path):
        # at this tiny size the identity gap exceeds the threshold, which is
        # fine here: the point is byte-identical reruns and a clean exit code
        out1 = tmp_path / "v1"
        out2 = tmp_path / "v2"
        args = ["verify", "--suite", "jeulin", "--n", "64", "--reps", "400",
                "--seed", "7"]
        code1 = main(args + ["--out", str(out1)])
        code2 = main(args + ["--out", str(out2)])
        assert code1 == code2 and code1 in (EXIT_OK, EXIT_VERIFY)
        csv1 = (out1 / "verify_jeulin.csv").read_bytes()
        csv2 = (out2 / "verify_jeulin.csv").read_bytes()
        assert csv1 == csv2

    def test_jeulin_default_threshold_scales_with_reps(self, tmp_path):
        # the default keeps the KS level of 0.05 at 10^4 replicates
        for reps, expected in ((100, 0.5), (400, 0.25)):
            out = tmp_path / f"j{reps}"
            main(["verify", "--suite", "jeulin", "--n", "10", "--reps", str(reps),
                  "--seed", "7", "--out", str(out)])
            _, rows = read_csv(out / "verify_jeulin.csv")
            ks_row = next(row for row in rows if row[0] == "jeulin-ks")
            assert float(ks_row[2]) == pytest.approx(expected)
            assert ks_row[3] == str(int(float(ks_row[1]) <= float(ks_row[2])))

    @pytest.mark.parametrize("argv, threshold", [(["--reps", "25"], "1.0"),
                                                 (["--threshold", "1"], "1.0")])
    def test_verify_jeulin_refuses_a_threshold_no_ks_distance_exceeds(
            self, argv, threshold, tmp_path, capsys, monkeypatch):
        # a KS distance is at most 1, so at a threshold of 1 or more the check could not fail;
        # the default threshold reaches 1 at 25 replicates, and the refusal draws nothing
        def no_draw(*args):
            raise AssertionError("drew before the threshold was checked")

        monkeypatch.setattr(checks, "jeulin_check", no_draw)
        assert main(["verify", "--suite", "jeulin", "--n", "64", *argv,
                     "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert f"threshold must be < 1, got {threshold}" in capsys.readouterr().err
        assert not list((tmp_path / "v").glob("*.csv"))

    def test_verify_jeulin_runs_at_26_reps(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--suite", "jeulin", "--n", "64", "--reps", "26",
                     "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
        _, rows = read_csv(out / "verify_jeulin.csv")
        assert rows[0][0] == "jeulin-ks" and float(rows[0][1]) <= 1 and float(rows[0][2]) < 1

    def test_verify_lemma3(self, tmp_path, capsys):
        assert main(["verify", "--suite", "lemma3", "--reps", "60", "--seed", "3",
                     "--out", str(tmp_path / "v")]) == EXIT_OK
        assert "lemma3" in capsys.readouterr().out

    @pytest.mark.parametrize("s", ["0", "1"])
    def test_verify_lemma3_refuses_a_gap_that_vanishes(self, s, tmp_path, capsys):
        # below s = 2 the gap is identically 0, so every step would pass vacuously
        assert main(["verify", "--suite", "lemma3", "--s", s, "--reps", "20",
                     "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert f"s must be >= 2, got {s}" in capsys.readouterr().err

    def test_verify_lemma3_step_verdicts_under_ok(self, tmp_path, capsys):
        # each step's verdict sits on the row of its larger n, and prints one line
        assert main(["verify", "--suite", "lemma3", "--s", "2", "--reps", "20", "--seed", "33",
                     "--out", str(tmp_path / "v")]) == EXIT_OK
        _, rows = read_csv(tmp_path / "v" / "verify_lemma3.csv")
        ok = {row[0]: row[3] for row in rows}
        assert [ok.pop(f"{mode}-gap-n50") for mode in ("bf", "df")] == ["", ""]
        assert len(ok) == 6 and set(ok.values()) <= {"0", "1"}
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_estimate_radius_deterministic(self, tmp_path):
        out1 = tmp_path / "e1"
        out2 = tmp_path / "e2"
        args = ["estimate", "--target", "radius", "--n", "40", "--s", "1",
                "--reps", "50", "--seed", "11"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "estimate_radius.csv").read_bytes() == \
            (out2 / "estimate_radius.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert "ks_bf_df" in summary

    def test_estimate_profile(self, tmp_path):
        out = tmp_path / "p"
        assert main(["estimate", "--target", "profile", "--n", "60", "--s", "1",
                     "--reps", "60", "--seed", "2", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "estimate_profile.csv")
        assert header == ["r", "mean_map", "mean_tree", "mean_localtime"]
        assert len(rows) == 31

    def test_estimate_um_radius(self, tmp_path):
        out = tmp_path / "um"
        assert main(["estimate", "--target", "radius", "--model", "um", "--n", "30",
                     "--g", "1", "--reps", "60", "--seed", "4",
                     "--out", str(out)]) == EXIT_OK

    def test_weight_overflow_is_usage_error(self, tmp_path, capsys):
        # B(f)^200 at n=200 does not fit a float, nor does the map weight B(f)^200 / 200!
        for k, argv in enumerate([
                ["estimate", "--target", "radius", "--n", "200", "--s", "200", "--reps", "3"],
                ["sample", "map", "--n", "200", "--s", "200"]]):
            assert main(argv + ["--out", str(tmp_path / f"o{k}")]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "n=200" in err and "s=200" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--target", "radius", "--model", "um", "--g", "0", "--n", "10",
         "--reps", "5"],
        ["sample", "crum", "--n", "10", "--g", "0"],
        ["estimate", "--target", "radius", "--n", "20", "--s", "-1", "--reps", "5"],
        ["sample", "map", "--n", "10", "--s", "-1"],
        ["sample", "excursion", "--n", "-3"],
        ["estimate", "--target", "radius", "--n", "20", "--reps", "-5"],
        ["enumerate", "--family", "um", "--n", "3", "--g", "-1"],
        ["verify", "--suite", "counts", "--n", "-2"],
        ["sample", "crum", "--n", "10", "--g", "0", "--reps", "0"],  # refused with no draw
        ["estimate", "--target", "radius", "--n", "0", "--reps", "3"],
        ["estimate", "--target", "two-point", "--n", "0", "--reps", "3"],
    ])
    def test_bad_sizes_are_usage_errors(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [["sample", "graph", "--n", "0"],
                                      ["enumerate", "--family", "h", "--n", "0"]])
    def test_graphs_of_no_vertices_are_refused(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: n must be >= 1\n"

    def test_genus_two_above_cap_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["estimate", "--target", "radius", "--model", "um", "--g", "2",
                     "--n", "1000", "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert time.perf_counter() - start < 10.0
        assert f"n<={TUPLE_ENUMERATION_CAP}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "crum", "--n", "40", "--g", "1", "--reps", "4"],
        ["estimate", "--target", "radius", "--model", "um", "--n", "30", "--g", "1",
         "--reps", "4"],
        ["estimate", "--target", "two-point", "--model", "um", "--n", "25", "--g", "1",
         "--reps", "4"],
    ])
    def test_one_genus_one_pass_per_replicate(self, argv, tmp_path, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return genus_one_counts(f)

        for module in (maps, samplers):
            monkeypatch.setattr(module, "genus_one_counts", counted)
        assert main(argv + ["--seed", "5", "--out", str(tmp_path / "o")]) == EXIT_OK
        # sample draws one excursion per replicate, estimate two (map and contour routes)
        replicates = 4 if argv[0] == "sample" else 8
        assert len(calls) == replicates

    def test_one_pairing_list_per_crum_run(self, tmp_path, monkeypatch):
        # the pairings of [4g] are matched once per process, however many draws read them
        calls, all_pairings = [], maps.all_pairings

        def counted(size):
            calls.append(size)
            return all_pairings(size)

        monkeypatch.setattr(maps, "all_pairings", counted)
        entangled_pairings.cache_clear()
        try:
            assert main(["sample", "crum", "--n", "8", "--g", "2", "--reps", "4", "--seed", "5",
                         "--out", str(tmp_path / "o")]) == EXIT_OK
        finally:
            entangled_pairings.cache_clear()
        assert calls == [8]

    @pytest.mark.parametrize("argv", [
        ["sample", "map", "--n", "12", "--s", "2", "--reps", "2", "--seed", "5"],
        ["sample", "map", "--n", "50", "--s", "2", "--reps", "2", "--seed", "5"],
        ["sample", "crum", "--n", "12", "--g", "1", "--reps", "2", "--seed", "5"],
        ["sample", "tree", "--n", "12", "--reps", "2", "--seed", "5"],
        ["enumerate", "--family", "m", "--n", "3", "--s", "1"],
    ])
    def test_map_paths_decode_no_tree(self, argv, tmp_path, monkeypatch):
        # maps are built from the contour: no tree decode and no re-encoding
        calls = []

        def counted(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapped

        for name in ("tree_of_contour", "contour_of_tree"):
            wrapped = counted(getattr(lattice_paths, name))
            for module in (lattice_paths, maps, samplers, checks, estimators, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_OK
        assert calls == []

    def test_counts_command(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["counts", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "anchor" in text
        header, rows = read_csv(out / "counts.csv")
        assert header == ["family", "n", "param", "exact", "prediction"]

    def test_sample_crum(self, tmp_path):
        out = tmp_path / "crum"
        assert main(["sample", "crum", "--n", "12", "--g", "1", "--reps", "2",
                     "--seed", "21", "--out", str(out)]) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert "crum_decorations.csv" in files

    def test_crum_decorations_read_back(self, tmp_path):
        # the pairing "(1,3)(2,4)" holds commas and must stay one field
        out = tmp_path / "crum"
        assert main(["sample", "crum", "--n", "12", "--g", "1", "--reps", "3",
                     "--seed", "21", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "crum_decorations.csv")
        assert header == ["replicate", "pairing", "corners", "heights"]
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 4
            assert row[1] == "(1,3)(2,4)"
            assert len(row[2].split(";")) == 4 and len(row[3].split(";")) == 2

    def test_sample_map_and_graph(self, tmp_path):
        out = tmp_path / "m"
        assert main(["sample", "map", "--n", "6", "--s", "1", "--reps", "2",
                     "--seed", "31", "--out", str(out)]) == EXIT_OK
        m = persistence.load_map(out / "map_0.json")
        assert m.surplus == 1
        out2 = tmp_path / "g"
        assert main(["sample", "graph", "--n", "6", "--s", "1", "--reps", "2",
                     "--seed", "32", "--out", str(out2)]) == EXIT_OK


class TestSampleOnEveryCpu:
    """``sample map`` and ``sample crum`` draw and write in replicate ranges: the same files
    on 1, 2 and 3 CPUs, and no process left behind."""

    REPS = 3 * samplers.MIN_SAMPLE_RANGE + 1  # three ranges at three CPUs: 0, 8, 16 .. 24

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def on_cpus(monkeypatch, cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    CASES = {
        "map": ["map", "--n", "40", "--s", "2"],
        "crum-g1": ["crum", "--n", "40", "--g", "1"],
        "crum-g2": ["crum", "--n", "6", "--g", "2"],  # some replicates have no gluable tuple
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_files_on_any_cpu_count(self, case, tmp_path, monkeypatch):
        parent = os.getpid()
        saved = []  # the maps this process wrote itself
        save_map = persistence.save_map
        monkeypatch.setattr(persistence, "save_map",
                            lambda m, path: saved.append(path.name) or save_map(m, path))
        hold_back(monkeypatch, samplers)  # the workers pull the chunks this process holds back
        runs = []
        for cpus in (1, 2, 3):
            self.on_cpus(monkeypatch, cpus)
            saved.clear()
            out = tmp_path / str(cpus)
            assert main(["sample", *self.CASES[case], "--reps", str(self.REPS), "--seed", "4",
                         "--out", str(out)]) == EXIT_OK
            assert os.getpid() == parent
            written = len(list(out.glob("*_*.json")))
            assert (len(saved) < written) == (cpus > 1)  # the workers write some of the maps
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            outputs = persistence.load_manifest(out / "manifest.json").outputs
            assert set(outputs) == set(files)
            runs.append((files, outputs))
        for files, outputs in runs[1:]:
            assert files == runs[0][0]
            assert outputs == runs[0][1]
        if case == "crum-g2":
            _, rows = read_csv(tmp_path / "1" / "crum_decorations.csv")
            degenerate = [int(row[0]) for row in rows if row[1] == "degenerate"]
            assert degenerate and max(degenerate) >= self.REPS // 3
            assert not any(f"crum_{r}.json" in runs[0][0] for r in degenerate)

    def test_sample_map_never_derives_sigma(self, tmp_path, monkeypatch):
        # sample map writes the involution and the rotation cycles insertion built, so no
        # map it draws should pay for deriving sigma and origin
        self.on_cpus(monkeypatch, 1)
        derived = []
        derive = maps.RootedMap._derive
        monkeypatch.setattr(maps.RootedMap, "_derive",
                            lambda m: derived.append(m) or derive(m))
        assert main(["sample", "map", "--n", "200", "--s", "2", "--reps", "5",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(list((tmp_path / "o").glob("map_*.json"))) == 5
        assert derived == []

    def test_weight_overflow_in_a_worker_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # only the workers' replicates overflow: B(f)^200 / 200! at n=200 does not fit a float
        self.on_cpus(monkeypatch, 3)
        parent = os.getpid()
        draw = cli.sample_uniform_map
        monkeypatch.setattr(cli, "sample_uniform_map", lambda n, s, gen: draw(
            n, 1 if os.getpid() == parent else s, gen))
        assert main(["sample", "map", "--n", "200", "--s", "200", "--reps", str(self.REPS),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "n=200" in err and "s=200" in err

    def test_a_failed_gluing_names_its_replicate(self, tmp_path, monkeypatch):
        # replicates 20 and 23 glue two faces; 20 is named on any CPU count, and on more
        # than one it is glued in a worker while this process holds back its first chunk
        hold_back(monkeypatch, samplers)
        glue = cli.unicellular_glue
        streams = itertools.islice(samplers.RngStream(0).generators(24), 20, None)
        bad = {samplers.sample_uniform_excursion(40, gen).steps_string()
               for r, gen in enumerate(streams, 20) if r in (20, 23)}

        def glue_two_faces(exc, pairing, corners):
            m, unicellular = glue(exc, pairing, corners)
            return m, unicellular and exc.steps_string() not in bad

        monkeypatch.setattr(cli, "unicellular_glue", glue_two_faces)
        for cpus in (1, 2, 3):
            self.on_cpus(monkeypatch, cpus)
            with pytest.raises(RuntimeError, match="replicate 20 .* at n=40, g=1") as info:
                main(["sample", "crum", "--n", "40", "--g", "1", "--reps", str(self.REPS),
                      "--out", str(tmp_path / str(cpus))])
            assert ("Traceback" in str(info.value.__cause__)) == (cpus > 1)


class TestReplay:
    def test_replay_matches_digests(self, tmp_path):
        out = tmp_path / "run"
        assert main(["estimate", "--target", "two-point", "--n", "30", "--s", "1",
                     "--reps", "40", "--seed", "13", "--out", str(out)]) == EXIT_OK
        replayed = persistence.replay(out / "manifest.json", tmp_path / "again")
        assert set(replayed.outputs) == set(
            persistence.load_manifest(out / "manifest.json").outputs)

    def test_replay_detects_divergence(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sample", "excursion", "--n", "4", "--reps", "2", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        man = persistence.load_manifest(out / "manifest.json")
        man.outputs["excursions.txt"] = "0" * 64
        man.save(out / "manifest.json")
        with pytest.raises(persistence.PersistenceError):
            persistence.replay(out / "manifest.json", tmp_path / "again")


class TestSelftest:
    SUITE_NAMES = ["bijection", "counts", "w1", "psi", "vervaat", "sg", "dichotomy",
                   "decoration-count"]

    def test_same_bytes_on_any_cpu_count(self, tmp_path, capsys, monkeypatch):
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / str(cpus)
            assert main(["selftest", "--out", str(out)]) == EXIT_OK
            runs.append((capsys.readouterr().out, (out / "selftest.csv").read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        *lines, verdict = runs[0][0].splitlines()
        assert verdict == "selftest: PASS"
        suites = [line.split()[1].split(":")[0] for line in lines]
        assert [name for name, _ in itertools.groupby(suites)] == self.SUITE_NAMES
        with pytest.raises(ChildProcessError):  # and no process is left behind
            os.waitpid(-1, os.WNOHANG)

    def test_selftest_under_a_minute(self, tmp_path, capsys):
        import time

        start = time.time()
        code = main(["selftest", "--out", str(tmp_path / "st")])
        elapsed = time.time() - start
        assert code == EXIT_OK
        assert elapsed < 60.0
        assert "selftest: PASS" in capsys.readouterr().out


class TestUmTwoPoint:
    def test_estimate_um_two_point(self, tmp_path):
        out = tmp_path / "um2"
        assert main(["estimate", "--target", "two-point", "--model", "um", "--n", "25",
                     "--g", "1", "--reps", "50", "--seed", "6", "--out", str(out)]) == EXIT_OK

    def test_estimate_um_profile_is_usage_error(self, tmp_path):
        out = tmp_path / "ump"
        assert main(["estimate", "--target", "profile", "--model", "um", "--n", "25",
                     "--reps", "10", "--seed", "6", "--out", str(out)]) == EXIT_USAGE

    def test_estimate_um_profile_names_model_h(self, tmp_path, capsys):
        assert main(["estimate", "--target", "profile", "--model", "um", "--n", "25",
                     "--reps", "10", "--out", str(tmp_path / "ump")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: profile estimation is available for --model h only\n")
