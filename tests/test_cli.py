import hashlib
import json
import shutil

import numpy as np
import pytest

from prognosis import cli, eeg_io
from prognosis.checkpoint import load_checkpoint, save_checkpoint


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = cli.main([
        "synthesize", "--good", "2", "--poor", "2", "--hours", "1",
        "--seed", "3", "--fs", "80", "--out", str(root),
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained_run(corpus, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("runs") / "run"
    code = cli.main([
        "train", "--data", str(corpus), "--preset", "desk", "--iters", "4",
        "--eval-every", "2", "--batch", "2", "--split-ratio", "0.5",
        "--seed", "0", "--run", str(run_dir),
    ])
    assert code == 0
    return run_dir


class TestSynthesize:
    def test_patient_count(self, corpus):
        dirs = [p for p in corpus.iterdir()
                if p.is_dir() and not p.name.startswith(".")]
        assert len(dirs) == 4
        outcomes = [
            json.loads((p / "patient.json").read_text())["outcome"] for p in dirs
        ]
        assert sorted(outcomes) == ["Good", "Good", "Poor", "Poor"]

    def test_deterministic(self, capsys, tmp_path):
        args = ["synthesize", "--good", "1", "--poor", "1", "--seed", "9",
                "--fs", "80"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert tree_digest(a) == tree_digest(b)

    def test_zero_patients_usage_error(self, capsys, tmp_path):
        for good, poor in (("0", "0"), ("2", "-1"), ("-1", "2")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["synthesize", "--good", good, "--poor", poor,
                          "--out", str(tmp_path)])
            assert exc.value.code == 2
        assert not any(tmp_path.iterdir())


class TestMontage:
    def test_list_csv(self, capsys):
        code, out, _ = run(capsys, "montage", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,anode,cathode"
        assert len(lines) == 19
        assert lines[1] == "0,Fp1,F7"
        assert lines[-1] == "17,Cz,Pz"


class TestTrain:
    def test_dry_run(self, capsys):
        code, out, _ = run(capsys, "train", "--preset", "desk", "--dry-run")
        assert code == 0
        assert "sequence dims: 26x32" in out
        assert "attention blocks: 2, heads: 2" in out
        assert "parameters:" in out
        assert "forward ok" in out

    def test_missing_data_dir(self, capsys, tmp_path):
        bogus = tmp_path / "nope"
        code, _, err = run(capsys, "train", "--data", str(bogus),
                           "--iters", "1")
        assert code == 1
        assert "nope" in err

    def test_config_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:  # --preset is the one way to pick a model
            cli.main(["train", "--config", "desk.json", "--dry-run"])
        assert exc.value.code == 2

    def test_data_required_without_dry_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--preset", "desk"])
        assert exc.value.code == 2

    def test_artifacts(self, trained_run, capsys):
        assert (trained_run / "metrics.csv").is_file()
        assert (trained_run / "best.ckpt").is_file()
        assert (trained_run / "last.ckpt").is_file()
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["model_config"]["embed_dim"] == 32


class TestEvaluate:
    def test_report(self, capsys, corpus, trained_run, tmp_path):
        out_dir = tmp_path / "eval"
        code, out, _ = run(
            capsys, "evaluate", "--data", str(corpus),
            "--checkpoint", str(trained_run / "best.ckpt"),
            "--cache", str(corpus / ".preprocessed"),
            "--out", str(out_dir),
        )
        assert code == 0
        assert "challenge_metric=" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_patients"] == 4
        rows = (out_dir / "patients.csv").read_text().strip().splitlines()
        assert len(rows) == 5

    def test_val_split(self, capsys, corpus, trained_run, tmp_path):
        code, _, _ = run(
            capsys, "evaluate", "--data", str(corpus),
            "--checkpoint", str(trained_run / "best.ckpt"),
            "--cache", str(corpus / ".preprocessed"),
            "--split", "val", "--out", str(tmp_path / "eval"),
        )
        assert code == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["n_patients"] == 2

    def test_val_split_caches_only_scored_patients(
        self, capsys, corpus, trained_run, tmp_path
    ):
        cache = tmp_path / "cache"
        code, _, _ = run(
            capsys, "evaluate", "--data", str(corpus),
            "--checkpoint", str(trained_run / "best.ckpt"),
            "--cache", str(cache), "--split", "val", "--out", str(tmp_path / "eval"),
        )
        assert code == 0
        val_ids = load_checkpoint(trained_run / "best.ckpt")[3]["val_patients"]
        assert sorted(p.name for p in cache.iterdir()) == sorted(val_ids)

    def test_default_cache_matches_explicit_cache(
        self, capsys, corpus, trained_run, tmp_path
    ):
        data = tmp_path / "data"
        shutil.copytree(corpus, data, ignore=shutil.ignore_patterns(".*"))
        ckpt = str(trained_run / "best.ckpt")
        explicit, default = tmp_path / "explicit", tmp_path / "default"
        assert run(capsys, "evaluate", "--data", str(data), "--checkpoint", ckpt,
                   "--cache", str(tmp_path / "cache"), "--out", str(explicit))[0] == 0
        assert not (data / ".preprocessed").exists()
        assert run(capsys, "evaluate", "--data", str(data), "--checkpoint", ckpt,
                   "--out", str(default))[0] == 0
        assert (data / ".preprocessed").is_dir()
        for name in ("report.json", "patients.csv"):
            assert (default / name).read_bytes() == (explicit / name).read_bytes()

    def test_truncated_checkpoint(self, capsys, corpus, trained_run, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((trained_run / "best.ckpt").read_bytes()[:-64])
        code, _, err = run(
            capsys, "evaluate", "--data", str(corpus),
            "--checkpoint", str(bad), "--out", str(tmp_path / "eval"),
        )
        assert code == 1
        assert "truncated" in err


class TestPredict:
    def test_json_lines(self, capsys, corpus, trained_run):
        patients = sorted(p for p in corpus.iterdir()
                          if p.is_dir() and not p.name.startswith("."))[:2]
        code, out, _ = run(
            capsys, "predict", "--checkpoint", str(trained_run / "best.ckpt"),
            *[str(p) for p in patients],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"patient_id", "poor_prob", "outcome_pred",
                                "cpc_pred"}
            assert 0.0 <= rec["poor_prob"] <= 1.0
            assert rec["outcome_pred"] in (eeg_io.GOOD, eeg_io.POOR)

    def test_threshold_flips_label(self, capsys, corpus, trained_run):
        patient = sorted(p for p in corpus.iterdir()
                         if p.is_dir() and not p.name.startswith("."))[0]
        ckpt = str(trained_run / "best.ckpt")
        _, low, _ = run(capsys, "predict", "--checkpoint", ckpt,
                        "--threshold", "0.000001", str(patient))
        _, high, _ = run(capsys, "predict", "--checkpoint", ckpt,
                         "--threshold", "0.999999", str(patient))
        assert json.loads(low)["outcome_pred"] == eeg_io.POOR
        assert json.loads(high)["outcome_pred"] == eeg_io.GOOD

    def test_missing_electrode(self, capsys, trained_run, tmp_path):
        electrodes = tuple(e for e in eeg_io.STANDARD_ELECTRODES if e != "Cz")
        rec = eeg_io.RawRecording(
            patient_id="broken", hour_index=0, fs_hz=100.0,
            electrodes=electrodes,
            samples=np.zeros((18, 40000), dtype=np.float32),
        )
        hdr, _ = eeg_io.write_recording(rec, tmp_path)
        code, out, err = run(
            capsys, "predict", "--checkpoint", str(trained_run / "best.ckpt"),
            str(hdr),
        )
        assert code == 1
        assert out == ""
        assert "Cz" in err


class TestPreprocessCommand:
    def test_cache_built(self, capsys, corpus):
        code, out, _ = run(capsys, "preprocess", "--data", str(corpus))
        assert code == 0
        assert "4 patients" in out
        assert (corpus / ".preprocessed").is_dir()

    def test_skipped_hour_reported(self, capsys, tmp_path):
        samples = np.random.default_rng(0).standard_normal((19, 30000))
        full = eeg_io.RawRecording(
            patient_id="p", hour_index=0, fs_hz=100.0,
            electrodes=eeg_io.STANDARD_ELECTRODES, samples=samples.astype(np.float32),
        )
        keep = [i for i, e in enumerate(eeg_io.STANDARD_ELECTRODES) if e != "Cz"]
        no_cz = eeg_io.RawRecording(
            patient_id="p", hour_index=1, fs_hz=100.0,
            electrodes=tuple(eeg_io.STANDARD_ELECTRODES[i] for i in keep),
            samples=samples[keep].astype(np.float32),
        )
        meta = eeg_io.PatientMeta("p", eeg_io.GOOD, 1)
        eeg_io.write_patient(meta, [full, no_cz], tmp_path)
        code, out, err = run(capsys, "preprocess", "--data", str(tmp_path))
        assert code == 0
        assert "preprocessed 1 hours from 1 patients" in out
        assert err == "skipped: patient p, hour 1: Cz\n"

    def test_skipped_rates_reported(self, capsys, mixed_rate_corpus):
        code, out, err = run(capsys, "preprocess", "--data", str(mixed_rate_corpus))
        assert code == 0
        assert "preprocessed 1 hours from 1 patients" in out
        lines = err.splitlines()
        assert [line.split(": need")[0] for line in lines] == [
            "skipped: patient p0, hour 1: rate 60.0 Hz",
            "skipped: patient p0, hour 2: rate 250.00003 Hz",
        ]


# recorded splits that are not a non-empty list of patient ids
BAD_SPLITS = {"split-int": 5, "split-nested": [["a"]], "split-str": "abc", "split-empty": []}


@pytest.mark.parametrize(
    "argv, named",
    [
        *(pytest.param(["evaluate", "--data", "{corpus}", "--checkpoint", f"{{tmp}}/{name}.ckpt",
                        "--split", "val", "--out", "{tmp}/eval"],
                       f"{name}.ckpt: recorded val split must be", id=name)
          for name in BAD_SPLITS),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5",
                      "--eval-every", "0", "--run", "{tmp}/run"],
                     "eval_every", id="eval-every-0"),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5",
                      "--iters", "0", "--run", "{tmp}/run"],
                     "max_iterations", id="iters-0"),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "1",
                      "--run", "{tmp}/run"], "split_ratio", id="split-ratio-1"),
        pytest.param(["synthesize", "--good", "1", "--poor", "0", "--fs", "inf",
                      "--out", "{tmp}/data"], "fs_hz", id="fs-inf"),
        pytest.param(["synthesize", "--good", "1", "--poor", "0", "--fs", "250.00003",
                      "--out", "{tmp}/data"], "fs_hz", id="fs-no-ratio"),
        pytest.param(["evaluate", "--data", "{corpus}", "--checkpoint",
                      "{tmp}/no-split.ckpt", "--split", "val", "--out", "{tmp}/eval"],
                     "no-split.ckpt", id="split-not-recorded"),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5",
                      "--iters", "1", "--lr", "nan", "--run", "{tmp}/run"],
                     "learning_rate", id="lr-nan"),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5",
                      "--iters", "1", "--lr=-1", "--run", "{tmp}/run"],
                     "learning_rate", id="lr-negative"),
        # under a regular file: each write fails as an error naming the path
        pytest.param(["preprocess", "--data", "{corpus}",
                      "--cache", "{tmp}/no-split.ckpt/cache"],
                     "no-split.ckpt/cache", id="cache-under-file"),
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5",
                      "--iters", "1", "--eval-every", "1",
                      "--run", "{tmp}/no-split.ckpt/run"],
                     "no-split.ckpt/run", id="run-under-file"),
        pytest.param(["evaluate", "--data", "{corpus}", "--checkpoint",
                      "{tmp}/no-split.ckpt", "--out", "{tmp}/no-split.ckpt/eval"],
                     "no-split.ckpt/eval", id="out-under-file"),
        pytest.param(["gradcheck", "--coords", "0"], "coords", id="coords-0"),
        pytest.param(["predict", "--checkpoint", "{tmp}/no-split.ckpt",
                      "--threshold", "nan", "{corpus}"], "threshold", id="threshold-nan"),
        pytest.param(["predict", "--checkpoint", "{tmp}/no-split.ckpt",
                      "--threshold", "1.5", "{corpus}"], "threshold", id="threshold-above-1"),
    ],
)
def test_bad_input_is_an_error(capsys, corpus, trained_run, tmp_path, argv, named):
    config, params, _, _ = load_checkpoint(trained_run / "best.ckpt")
    save_checkpoint(tmp_path / "no-split.ckpt", config, params)  # no meta
    for name, split in BAD_SPLITS.items():
        save_checkpoint(tmp_path / f"{name}.ckpt", config, params, meta={"val_patients": split})
    code, _, err = run(capsys, *(a.format(corpus=corpus, tmp=tmp_path) for a in argv))
    assert code == 1
    assert err.startswith("error: ")
    assert named in err
    assert not (tmp_path / "data").exists()  # no corpus is written


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["train", "--data", "{corpus}", "--split-ratio", "0.5", "--iters", "1",
                      "--run", "{tmp}/file/run"], id="train"),
        pytest.param(["evaluate", "--data", "{corpus}", "--checkpoint", "{ckpt}",
                      "--out", "{tmp}/file/eval"], id="evaluate"),
    ],
)
def test_unusable_output_fails_before_preprocessing(capsys, corpus, trained_run, tmp_path, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(corpus=corpus, tmp=tmp_path, ckpt=trained_run / "best.ckpt") for a in argv]
    code, _, err = run(capsys, *argv, "--cache", str(tmp_path / "cache"))
    assert code == 1
    assert err.startswith("error: cannot write ") and str(tmp_path / "file") in err
    assert not (tmp_path / "cache").exists()


class TestGradcheckCommand:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--preset", "desk",
                           "--coords", "5")
        assert code == 0
        assert "OK" in out
        assert "checked 5 coordinates" in out
