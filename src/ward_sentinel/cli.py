"""Command-line entry points.

Exit codes: 0 success, 2 validation failure (bad input data), 1 internal
error. JSON reports carry a schema_version field; CSV formats are documented
next to their writers.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import camera_meta as cm
from . import trends as tr
from .errors import ValidationError, WardSentinelError
from .evaluation import TrendAccuracyReport, TrendAccuracyRow, evaluate_frames, frame_id, trend_accuracy
from .model import ANALYSIS_DIMS, PipelineConfig
from .pipeline import (
    ADAPTERS,
    SyntheticDetector,
    frame_source,
    ingest_external,
    rows_source,
    run_pipeline,
)
from .schema import DECODER, SCHEMA_VERSION, CanonicalRow, loads_row, parse_jsonl
from .schema import read_labels_jsonl, write_rows_jsonl
from .simulator import generate, spec_from_dict
from .store import Store

REPORT_VERSION = {"schema_version": SCHEMA_VERSION}


def _load_json(path, build):
    """build(parsed JSON file); bad content is a ValidationError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(DECODER.decode(fh.read()))
        except KeyError as e:
            raise ValidationError(f"{path}: missing key {e}") from None
        except (TypeError, ValueError, ValidationError) as e:
            raise ValidationError(f"{path}: {e}") from None


def _load_config(path) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return _load_json(path, PipelineConfig.from_dict)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps({**REPORT_VERSION, **obj}, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_states(source: str):
    """Logical states grouped by session from a verified store dir or a JSONL file."""
    path = Path(source)
    if path.is_dir():
        store = Store(path)
        store.verify()
        rows = store.iter_rows()
    else:
        rows = parse_jsonl(path, loads_row)
    by_session: dict[str, list] = {}
    for row in rows:
        if row.logical is not None:
            by_session.setdefault(row.record.session_id, []).append(row.logical)
    for states in by_session.values():
        states.sort(key=lambda s: s.ts)
    return by_session


def _cmd_simulate(args, cfg) -> int:
    spec = _load_json(args.spec, spec_from_dict)
    sim = generate(spec, cfg)
    out = _out_dir(args.out)
    write_rows_jsonl(
        (CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records),
        out / "detections.jsonl",
    )
    write_rows_jsonl(
        (CanonicalRow(r, sim.motions.get(r.ts), s) for r, s in zip(sim.records, sim.gt_states)),
        out / "ground_truth.jsonl",
    )
    tr.write_observation_csv(
        [tr.ObservationLog(spec.session_id, sim.observation_log_intervals)],
        out / "observations.csv",
    )
    print(
        f"simulated {spec.duration_s}s session {spec.session_id!a}: "
        f"{len(sim.records)} records, {len(sim.observation_log_intervals)} alone intervals"
    )
    return 0


def _cmd_run(args, cfg) -> int:
    if args.with_frames and not args.scenario:
        raise ValidationError("--with-frames needs --scenario")
    store = Store(args.out)
    detector = None
    if args.scenario:
        spec = _load_json(args.scenario, spec_from_dict)
        if spec.zone and spec.session_id not in cfg.zones:
            from dataclasses import replace

            cfg = replace(cfg, zones={**cfg.zones, spec.session_id: spec.zone})
        sim = generate(spec, cfg)
        if args.with_frames:
            source = frame_source(sim.frames())
            detector = SyntheticDetector(sim)
        else:
            source = rows_source(
                CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records
            )
    else:
        source = rows_source(parse_jsonl(args.detections, loads_row))
    stats = run_pipeline(source, cfg, store, detector=detector)
    rate = stats.rows / stats.elapsed_s if stats.elapsed_s > 0 else float("inf")
    print(
        f"processed {stats.rows} seconds across {stats.sessions} session(s) in "
        f"{stats.elapsed_s:.2f}s ({rate:.1f} rows/s), {stats.crossings} crossings"
    )
    print(f"store sealed: {len(stats.sealed_segments)} segment(s) under {args.out}")
    return 0


def _cmd_trends(args, cfg) -> int:
    by_session = _read_states(args.states)
    if not by_session:
        raise ValidationError(f"no logical states found in {args.states}")
    logs = tr.read_observation_csv(args.log) if args.log else None  # checked before --out is made
    out = _out_dir(args.out)
    all_trends = []
    for sid in sorted(by_session):
        all_trends.extend(tr.aggregate_hourly(by_session[sid]))
    tr.write_trend_csv(all_trends, out / "trends.csv")
    written = ["trends.csv"]
    if args.cohort:
        tr.write_cohort_csv(tr.cohort_average(all_trends), out / "cohort.csv")
        written.append("cohort.csv")
    if logs is not None:
        assisted = []
        for sid, log in sorted(logs.items()):
            if sid in by_session:
                assisted.extend(tr.assisted_trends(by_session[sid], log))
        tr.write_trend_csv(assisted, out / "assisted_trends.csv")
        if args.cohort:
            tr.write_cohort_csv(tr.cohort_average(assisted), out / "assisted_cohort.csv")
            written.append("assisted_cohort.csv")
        written.append("assisted_trends.csv")
    print(f"wrote {', '.join(sorted(written))} to {out}")
    return 0


def _cmd_evaluate_frames(args, cfg) -> int:
    labels = read_labels_jsonl(args.labels)
    # Only what evaluate_frames scores: each record and smoothed patient_alone.
    preds, pred_alone, smoothed = [], {}, 0
    for row in parse_jsonl(args.preds, loads_row):
        preds.append(rec := row.record)
        if row.logical is not None:
            smoothed += 1
            pred_alone[frame_id(rec.session_id, rec.ts)] = row.logical.patient_alone
    if smoothed not in (0, len(preds)):
        raise ValidationError(
            f"{args.preds}: {smoothed} of {len(preds)} prediction rows carry a logical state; all or none must"
        )
    report = evaluate_frames(
        labels,
        preds,
        iou_threshold=cfg.iou_threshold,
        pred_alone=pred_alone if smoothed else None,
        exclude_exceptions=not args.keep_exceptions,
    )
    out = _out_dir(args.out)
    _write_json(report.to_dict(), out / "frame_report.json")
    print(
        f"macro F1 {report.macro_f1:.4f}, patient role F1 {report.patient_role.f1:.4f}, "
        f"patient alone F1 {report.patient_alone.f1:.4f} "
        f"({report.frames_evaluated} frames, {report.frames_excluded} excluded)"
    )
    return 0


def _cmd_evaluate_trends(args, cfg) -> int:
    by_session = _read_states(args.states)
    logs = tr.read_observation_csv(args.log)
    shared = sorted(set(by_session) & set(logs))
    if not shared:
        raise ValidationError("states and observation log share no sessions")
    report = TrendAccuracyReport.from_rows(
        [r for sid in shared for r in trend_accuracy(by_session[sid], logs[sid], cfg).rows]
    )
    out = _out_dir(args.out)
    report_obj = report.to_dict()
    _write_json(report_obj, out / "trend_report.json")
    with open(out / "per_patient_day.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, [f.name for f in fields(TrendAccuracyRow)])
        writer.writeheader()
        for row in report_obj["rows"]:
            writer.writerow({**row, "accuracy": f"{row['accuracy']:.6f}"})
    for period, s in report.summary.items():
        print(f"{period}: {s['mean']:.3f} +/- {s['std']:.3f} over {s['n']} patient-day(s)")
    return 0


def _cmd_camera_meta(args, cfg) -> int:
    labels = read_labels_jsonl(args.labels)
    try:
        stats = [s for s in (cm.bed_stats(l, ANALYSIS_DIMS) for l in labels) if s is not None]
    except ValidationError as e:
        raise ValidationError(f"{args.labels}: {e}") from None
    if not stats:
        raise ValidationError("no labeled bed boxes found")
    out = _out_dir(args.out)
    cm.write_stats_csv(stats, out / "bed_stats.csv")
    cm.write_histogram_csv(cm.placement_distribution(stats), out / "bed_histograms.csv")
    print(f"{len(stats)} bed placements summarized into {out}")
    return 0


def _cmd_ingest(args, cfg) -> int:
    report = ingest_external(args.input, args.adapter, Store(args.store))
    print(report.summary())
    return 0 if report.rows_rejected == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ward-sentinel",
        description="Patient-monitoring analytics: streaming inference, trends, evaluation.",
    )
    parser.add_argument("--config", help="JSON file with PipelineConfig fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic session")
    p.add_argument("--spec", required=True, help="scenario spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run the streaming pipeline into a store")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--detections", help="canonical JSONL to replay")
    group.add_argument("--scenario", help="scenario spec JSON to synthesize")
    p.add_argument(
        "--with-frames",
        action="store_true",
        help="synthesize frames and compute real optical flow (scenario mode)",
    )
    p.add_argument("--out", required=True, help="store directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("trends", help="aggregate hourly trends from logical states")
    p.add_argument("--states", required=True, help="store directory or canonical JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="observation CSV; also emit assisted trends")
    p.add_argument("--cohort", action="store_true", help="emit cross-patient cohort averages")
    p.set_defaults(func=_cmd_trends)

    p = sub.add_parser("evaluate", help="evaluation protocols")
    esub = p.add_subparsers(dest="what", required=True)
    pf = esub.add_parser("frames", help="frame-level detection/classification metrics")
    pf.add_argument("--labels", required=True, help="frame-label JSONL")
    pf.add_argument("--preds", required=True, help="canonical JSONL predictions")
    pf.add_argument("--out", required=True)
    pf.add_argument(
        "--keep-exceptions",
        action="store_true",
        help="keep exception-tagged frames in the metrics",
    )
    pf.set_defaults(func=_cmd_evaluate_frames)
    pt = esub.add_parser("trends", help="trend accuracy against observation logs")
    pt.add_argument("--log", required=True, help="observation CSV")
    pt.add_argument("--states", required=True, help="store directory or canonical JSONL")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=_cmd_evaluate_trends)

    p = sub.add_parser("camera-meta", help="bed-placement meta-analysis from labels")
    p.add_argument("--labels", required=True, help="frame-label JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_camera_meta)

    p = sub.add_parser("ingest", help="map an external export into the store")
    p.add_argument("--adapter", required=True, help=" | ".join(ADAPTERS))
    p.add_argument("--input", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (WardSentinelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
