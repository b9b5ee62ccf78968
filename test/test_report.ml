(* Tests for the trace analysis & export toolchain (lib/report): the
   JSONL round trip through Trace_reader (including non-finite floats
   and unicode escapes), truncated-tail recovery, span-tree and
   critical-path aggregation, reconciliation against a live hybrid
   Optimize.run, the Chrome/folded/Prometheus exporters, and the
   bit-identity guarantee of the --progress reporter. *)

module Obs = Adc_obs
module Sink = Adc_obs.Sink
module Metrics = Adc_obs.Metrics
module Reader = Adc_report.Trace_reader
module Analysis = Adc_report.Trace_analysis
module Export = Adc_report.Trace_export
module Progress = Adc_report.Progress
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Montecarlo = Adc_pipeline.Montecarlo
module Synthesizer = Adc_synth.Synthesizer

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* polymorphic compare treats nan = nan, which is exactly the equality
   a round-trip test wants *)
let event_eq (a : Sink.event) (b : Sink.event) = compare a b = 0

let mk ?(id = 1) ?parent ?(start = 100L) ?(dur = 50L) ?(attrs = []) name =
  { Sink.name; id; parent; start_ns = start; dur_ns = dur; attrs }

(* ------------------------------------------------------------------ *)
(* round trip: Trace_reader.parse (Sink.event_to_json e) = e *)

let test_roundtrip_basic () =
  let e =
    mk "optimize.job" ~id:42 ~parent:7 ~start:123456789L ~dur:987654L
      ~attrs:
        [
          ("i", Sink.Int (-3));
          ("big", Sink.Int max_int);
          ("f", Sink.Float 1.5);
          ("tiny", Sink.Float 1.2345678901234567e-300);
          ("s", Sink.String "plain");
          ("b", Sink.Bool true);
          ("b2", Sink.Bool false);
        ]
  in
  Alcotest.(check bool) "round trip" true
    (event_eq e (Reader.parse (Sink.event_to_json e)))

let test_roundtrip_nonfinite () =
  let e =
    mk "x" ~attrs:
      [
        ("nan", Sink.Float Float.nan);
        ("inf", Sink.Float Float.infinity);
        ("ninf", Sink.Float Float.neg_infinity);
      ]
  in
  let e' = Reader.parse (Sink.event_to_json e) in
  Alcotest.(check bool) "non-finite floats survive" true (event_eq e e');
  (match List.assoc "nan" e'.Sink.attrs with
  | Sink.Float f -> Alcotest.(check bool) "NaN decoded as a float" true (Float.is_nan f)
  | _ -> Alcotest.fail "nan attr lost its float type")

let test_roundtrip_strings () =
  let e =
    mk "quo\"te\n\ttab" ~attrs:
      [
        ("escapes", Sink.String "a\"b\\c\nd\re\tf");
        ("control", Sink.String "\x01\x02\x1f");
        ("unicode", Sink.String "\xce\xbcV/\xe2\x88\x9aHz \xc3\xa9");
        ("empty", Sink.String "");
      ]
  in
  Alcotest.(check bool) "escaped and unicode strings survive" true
    (event_eq e (Reader.parse (Sink.event_to_json e)))

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Sink.Int i) int);
        (2, map (fun b -> Sink.Bool b) bool);
        (* integral floats print as "2" and legitimately decode as Int
           (documented caveat), so force a fractional part *)
        ( 3,
          map
            (fun f ->
              let f = if Float.is_integer f then f +. 0.5 else f in
              Sink.Float f)
            (float_bound_exclusive 1e12) );
        (1, oneofl
             [ Sink.Float Float.nan; Sink.Float Float.infinity;
               Sink.Float Float.neg_infinity ]);
        (* a literal "nan"/"inf"/"-inf" string is indistinguishable
           from an encoded non-finite float (documented caveat) *)
        ( 3,
          map
            (fun s -> Sink.String (if s = "nan" || s = "inf" || s = "-inf" then s ^ "_" else s))
            (string_size ~gen:printable (int_bound 12)) );
      ])

let event_gen =
  QCheck.Gen.(
    let* name = string_size ~gen:printable (int_range 1 16) in
    let* id = int_range 1 10_000 in
    let* parent = opt (int_range 1 10_000) in
    let* start = map Int64.of_int (int_bound 1_000_000_000) in
    let* dur = map Int64.of_int (int_bound 1_000_000_000) in
    let* n_attrs = int_bound 6 in
    let* attrs =
      list_repeat n_attrs
        (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) value_gen)
    in
    return { Sink.name; id; parent; start_ns = start; dur_ns = dur; attrs })

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (event_to_json e) = e"
    (QCheck.make event_gen) (fun e ->
      event_eq e (Reader.parse (Sink.event_to_json e)))

(* ------------------------------------------------------------------ *)
(* reader robustness *)

let test_truncated_tail_recovery () =
  let path = Filename.temp_file "adc_report_test" ".jsonl" in
  let oc = open_out path in
  List.iteri
    (fun i name ->
      output_string oc (Sink.event_to_json (mk name ~id:(i + 1)));
      output_char oc '\n')
    [ "a"; "b"; "c" ];
  output_string oc "\n";                     (* blank line: ignored *)
  let full = Sink.event_to_json (mk "killed" ~id:9) in
  output_string oc (String.sub full 0 (String.length full - 10));
  close_out oc;
  let load = Reader.load_file path in
  Sys.remove path;
  Alcotest.(check int) "intact lines loaded" 3 (List.length load.Reader.events);
  Alcotest.(check int) "truncated tail counted, blank line not" 1
    load.Reader.skipped;
  Alcotest.(check (list string)) "file order preserved" [ "a"; "b"; "c" ]
    (List.map (fun (e : Sink.event) -> e.Sink.name) load.Reader.events)

let test_parse_errors () =
  List.iter
    (fun (label, line) ->
      match Reader.parse_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" label)
    [
      ("garbage", "not json at all");
      ("wrong type", {|{"type":"metric","name":"x"}|});
      ("missing fields", {|{"type":"span","name":"x"}|});
      ("trailing garbage", Sink.event_to_json (mk "a") ^ " trailing");
    ];
  Alcotest.(check bool) "Json.parse rejects trailing garbage" true
    (try ignore (Reader.Json.parse "{} x"); false
     with Reader.Parse_error _ -> true)

let test_json_unicode_escapes () =
  (match Reader.Json.parse {|"é 😀 A"|} with
  | Reader.Json.String s ->
    Alcotest.(check string) "BMP + surrogate pair decode to UTF-8"
      "\xc3\xa9 \xf0\x9f\x98\x80 A" s
  | _ -> Alcotest.fail "expected a string");
  match Reader.Json.parse {|"\ud800"|} with
  | Reader.Json.String s ->
    Alcotest.(check string) "lone surrogate becomes U+FFFD" "\xef\xbf\xbd" s
  | _ -> Alcotest.fail "expected a string"

(* ------------------------------------------------------------------ *)
(* aggregation *)

let test_tree_and_orphans () =
  let events =
    [
      mk "child" ~id:2 ~parent:1 ~start:110L ~dur:20L;
      mk "lost" ~id:5 ~parent:99 ~start:300L ~dur:10L;  (* parent missing *)
      mk "root" ~id:1 ~start:100L ~dur:100L;
    ]
  in
  let tree = Analysis.tree_of_events events in
  Alcotest.(check int) "two roots (one promoted orphan)" 2
    (List.length tree.Analysis.roots);
  Alcotest.(check int) "orphan counted" 1 tree.Analysis.orphans;
  let root =
    List.find
      (fun (n : Analysis.node) -> n.Analysis.event.Sink.name = "root")
      tree.Analysis.roots
  in
  Alcotest.(check int) "child attached" 1 (List.length root.Analysis.children);
  Alcotest.(check bool) "self = total - children" true
    (Analysis.self_ns root = 80L)

let test_critical_path () =
  let events =
    [
      mk "run" ~id:1 ~start:0L ~dur:1000L;
      mk "early" ~id:2 ~parent:1 ~start:10L ~dur:100L;
      mk "late" ~id:3 ~parent:1 ~start:500L ~dur:400L;
      mk "leaf" ~id:4 ~parent:3 ~start:600L ~dur:250L;
    ]
  in
  let path = Analysis.critical_path (Analysis.tree_of_events events) in
  Alcotest.(check (list string)) "latest-ending chain"
    [ "run"; "late"; "leaf" ]
    (List.map (fun (s : Analysis.path_step) -> s.Analysis.event.Sink.name) path);
  Alcotest.(check (list int)) "depths" [ 0; 1; 2 ]
    (List.map (fun (s : Analysis.path_step) -> s.Analysis.depth) path)

let test_utilization () =
  let task d start dur id =
    mk "pool.task" ~id ~start ~dur ~attrs:[ ("domain", Sink.Int d) ]
  in
  let events =
    [ task 0 0L 100L 1; task 0 100L 100L 2; task 1 0L 50L 3 ]
  in
  (match Analysis.utilization ~buckets:10 events with
  | None -> Alcotest.fail "expected utilization"
  | Some u ->
    Alcotest.(check int) "two domains" 2 (List.length u.Analysis.per_domain);
    let d0 = List.nth u.Analysis.per_domain 0 in
    Alcotest.(check int) "domain 0 tasks" 2 d0.Analysis.tasks;
    Alcotest.(check bool) "domain 0 fully busy" true (d0.Analysis.busy_ns = 200L);
    let d1 = List.nth u.Analysis.per_domain 1 in
    Alcotest.(check bool) "domain 1 half busy" true (d1.Analysis.busy_ns = 50L));
  Alcotest.(check bool) "no pool spans -> None" true
    (Analysis.utilization [ mk "optimize.job" ] = None)

(* ------------------------------------------------------------------ *)
(* live-run reconciliation: trace summary totals match the run record *)

let tiny_budget =
  { Synthesizer.sa_iterations = 12; pattern_evals = 20; space_factor = 0.6 }

let hybrid_run_events () =
  let obs = Obs.in_memory () in
  let r =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~jobs:2
      ~obs (Spec.paper_case ~k:10)
  in
  (r, Sink.drain obs.Obs.sink)

let test_reconcile_live_hybrid () =
  let r, events = hybrid_run_events () in
  let checks = Analysis.reconcile events in
  Alcotest.(check int) "four checks per run" 4 (List.length checks);
  List.iter
    (fun (c : Analysis.check) ->
      if not (Analysis.check_ok c) then
        Alcotest.failf "reconciliation failed: %s expected %d got %d"
          c.Analysis.label c.Analysis.expected c.Analysis.actual)
    checks;
  let t = Analysis.job_totals events in
  Alcotest.(check int) "jobs = distinct jobs"
    (List.length r.Optimize.distinct_jobs) t.Analysis.jobs;
  Alcotest.(check int) "evaluations = run record"
    r.Optimize.synthesis_evaluations t.Analysis.evaluations;
  Alcotest.(check int) "cold" r.Optimize.cold_jobs t.Analysis.cold;
  Alcotest.(check int) "warm" r.Optimize.warm_jobs t.Analysis.warm;
  let m = Analysis.memo_summary events in
  Alcotest.(check int) "memo lookups = distinct jobs"
    (List.length r.Optimize.distinct_jobs) m.Analysis.lookups;
  Alcotest.(check int) "memo hits = 0 (jobs pre-deduplicated)" 0 m.Analysis.hits;
  let rendered =
    Analysis.render_summary { Reader.events; skipped = 0 }
  in
  Alcotest.(check bool) "summary renders the ok verdicts" true
    (contains_substring rendered "ok"
    && not (contains_substring rendered "MISMATCH"))

(* a hybrid batch's trace is batch-shaped (no optimize.run root): its
   optimize.batch span reconciles against the union's job spans *)
let test_reconcile_hybrid_batch () =
  let obs = Obs.in_memory () in
  let b =
    Optimize.run_batch ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
      ~jobs:2 ~obs
      [ Spec.paper_case ~k:8; Spec.paper_case ~k:9 ]
  in
  let checks = Analysis.reconcile (Sink.drain obs.Obs.sink) in
  Alcotest.(check int) "one check for the batch" 1 (List.length checks);
  List.iter
    (fun (c : Analysis.check) ->
      Alcotest.(check bool) c.Analysis.label true (Analysis.check_ok c);
      Alcotest.(check int) "expects the batch record"
        b.Optimize.distinct_syntheses c.Analysis.expected)
    checks;
  Alcotest.(check bool) "the batch synthesized" true
    (b.Optimize.distinct_syntheses > 0)

let test_summary_through_file () =
  (* the same reconciliation must hold after a JSONL round trip *)
  let _, events = hybrid_run_events () in
  let path = Filename.temp_file "adc_report_test" ".jsonl" in
  let oc = open_out path in
  List.iter
    (fun e -> output_string oc (Sink.event_to_json e); output_char oc '\n')
    events;
  close_out oc;
  let load = Reader.load_file path in
  Sys.remove path;
  Alcotest.(check int) "no lines lost" (List.length events)
    (List.length load.Reader.events);
  List.iter
    (fun (c : Analysis.check) ->
      Alcotest.(check bool) c.Analysis.label true (Analysis.check_ok c))
    (Analysis.reconcile load.Reader.events)

let test_montecarlo_trial_spans () =
  let obs = Obs.in_memory () in
  let trials = 9 in
  let cfg =
    { Montecarlo.offset_sigma = 2e-3; gain_sigma = 1e-3; enob_margin = 0.5;
      n_fft = 256 }
  in
  ignore
    (Montecarlo.run ~trials ~config:cfg ~obs ~seed:5 (Spec.paper_case ~k:10)
       (Config.of_string "3-2"));
  let events = Sink.drain obs.Obs.sink in
  let t = Analysis.job_totals events in
  Alcotest.(check int) "one span per trial" trials t.Analysis.trials;
  let run =
    List.find (fun (e : Sink.event) -> e.Sink.name = "montecarlo.run") events
  in
  List.iter
    (fun (e : Sink.event) ->
      if e.Sink.name = "montecarlo.trial" then begin
        Alcotest.(check (option int)) "trial parented to the run"
          (Some run.Sink.id) e.Sink.parent;
        Alcotest.(check bool) "trial carries an enob attr" true
          (match Analysis.attr "enob" e with
          | Some (Sink.Float _) -> true
          | _ -> false)
      end)
    events

(* ------------------------------------------------------------------ *)
(* --progress is a pure consumer: bit-identical results *)

let test_progress_bit_identity () =
  let spec = Spec.paper_case ~k:10 in
  let go obs =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:2 ~budget:tiny_budget ~jobs:1
      ~obs spec
  in
  let plain = go Obs.null in
  let out = open_out (Filename.temp_file "adc_report_test" ".progress") in
  let p = Progress.create ~out ~total:3 ~domains:1 () in
  let mem = Sink.memory () in
  let watched =
    go { Obs.null with Obs.sink = Sink.tee mem (Progress.sink p) }
  in
  Progress.finish p;
  close_out out;
  Alcotest.(check (float 0.0)) "bit-identical optimum power"
    plain.Optimize.optimum.Optimize.p_total
    watched.Optimize.optimum.Optimize.p_total;
  Alcotest.(check int) "identical evaluator-call count"
    plain.Optimize.synthesis_evaluations
    watched.Optimize.synthesis_evaluations;
  Alcotest.(check string) "identical winner"
    (Config.to_string (Optimize.optimum_config plain))
    (Config.to_string (Optimize.optimum_config watched));
  (* the teed memory sink still saw the full trace *)
  Alcotest.(check bool) "tee delivered events to both branches" true
    (List.length (Sink.events mem) > 0)

let test_tee_collapses_disabled () =
  Alcotest.(check bool) "tee of nulls is disabled" false
    (Sink.enabled (Sink.tee Sink.null Sink.null));
  let m = Sink.memory () in
  Alcotest.(check bool) "tee with one live branch is that branch" true
    (Sink.tee Sink.null m == m)

(* ------------------------------------------------------------------ *)
(* exporters *)

let overlapping_events =
  [
    mk "run" ~id:1 ~start:0L ~dur:1000L;
    mk "job1" ~id:2 ~parent:1 ~start:10L ~dur:400L;
    mk "job2" ~id:3 ~parent:1 ~start:200L ~dur:400L;  (* overlaps job1 *)
    mk "job3" ~id:4 ~parent:1 ~start:420L ~dur:100L;  (* nests after job1 *)
    mk "attempt" ~id:5 ~parent:2 ~start:20L ~dur:100L;
  ]

let test_assign_lanes_invariant () =
  let placed = Export.assign_lanes overlapping_events in
  Alcotest.(check int) "every span placed" (List.length overlapping_events)
    (List.length placed);
  (* within one lane, any two spans are disjoint or nested — never
     partially overlapping (Perfetto would mis-stack them) *)
  List.iter
    (fun ((a : Sink.event), la) ->
      List.iter
        (fun ((b : Sink.event), lb) ->
          if la = lb && a.Sink.id <> b.Sink.id then begin
            let a0 = a.Sink.start_ns and a1 = Analysis.end_ns a in
            let b0 = b.Sink.start_ns and b1 = Analysis.end_ns b in
            let disjoint = a1 <= b0 || b1 <= a0 in
            let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1) in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s in lane %d" a.Sink.name b.Sink.name la)
              true (disjoint || nested)
          end)
        placed)
    placed;
  Alcotest.(check bool) "parallel siblings split lanes" true
    (List.length (List.sort_uniq compare (List.map snd placed)) >= 2)

let test_chrome_export_parses () =
  let json = Reader.Json.parse (Export.chrome overlapping_events) in
  let evts =
    match Reader.Json.member "traceEvents" json with
    | Some (Reader.Json.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  let xs =
    List.filter
      (fun e -> Reader.Json.member "ph" e = Some (Reader.Json.String "X"))
      evts
  in
  Alcotest.(check int) "one X event per span" (List.length overlapping_events)
    (List.length xs);
  List.iter
    (fun e ->
      List.iter
        (fun field ->
          if Reader.Json.member field e = None then
            Alcotest.failf "X event missing %s" field)
        [ "name"; "ts"; "dur"; "pid"; "tid"; "args" ])
    xs;
  (* args carry the span identity for cross-referencing *)
  let args_ids =
    List.filter_map
      (fun e ->
        match Reader.Json.member "args" e with
        | Some a ->
          (match Reader.Json.member "span_id" a with
          | Some (Reader.Json.Int i) -> Some i
          | _ -> None)
        | None -> None)
      xs
  in
  Alcotest.(check (list int)) "span ids preserved" [ 1; 2; 5; 3; 4 ] args_ids

let test_folded_output () =
  let out = Export.folded overlapping_events in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "has %S" needle) true
        (contains_substring out needle))
    [ "run "; "run;job1 "; "run;job1;attempt "; "run;job2 "; "run;job3 " ];
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed folded line %S" line
      | Some i ->
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool) "value is a non-negative int" true
          (match int_of_string_opt v with Some n -> n >= 0 | None -> false))
    (String.split_on_char '\n' (String.trim out))

let test_prometheus_export () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "optimize.evaluator_calls") 17;
  Metrics.set (Metrics.gauge m "pool.queue_depth") 2.5;
  let h = Metrics.histogram m "span.dur_ns" in
  List.iter (Metrics.observe h) [ 1.0; 3.0; 3.5; 100.0 ];
  let out = Export.prometheus (Metrics.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "has %S" needle) true
        (contains_substring out needle))
    [
      "# TYPE adcopt_optimize_evaluator_calls counter";
      "adcopt_optimize_evaluator_calls 17";
      "# TYPE adcopt_pool_queue_depth gauge";
      "adcopt_pool_queue_depth 2.5";
      "# TYPE adcopt_span_dur_ns histogram";
      "adcopt_span_dur_ns_bucket{le=\"+Inf\"} 4";
      "adcopt_span_dur_ns_count 4";
      "adcopt_span_dur_ns_sum 107.5";
    ];
  (* cumulative buckets must be monotone *)
  let last = ref 0 in
  List.iter
    (fun line ->
      if contains_substring line "_bucket{le=" then begin
        match String.rindex_opt line ' ' with
        | Some i ->
          let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          Alcotest.(check bool) "bucket counts cumulative" true (v >= !last);
          last := v
        | None -> ()
      end)
    (String.split_on_char '\n' out)

let test_registry_of_trace () =
  let _, events = hybrid_run_events () in
  let m = Export.registry_of_trace events in
  let t = Analysis.job_totals events in
  let cval name = Metrics.counter_value (Metrics.counter m name) in
  Alcotest.(check int) "evaluator calls recovered from the run span"
    t.Analysis.evaluations (cval "optimize.evaluator_calls");
  Alcotest.(check int) "memo misses recovered" t.Analysis.jobs (cval "memo.miss");
  let out = Export.prometheus (Metrics.snapshot m) in
  Alcotest.(check bool) "per-span-name histograms exported" true
    (contains_substring out "adcopt_span_optimize_job_dur_ns_count")

(* satellite: Metrics.render now includes quantiles *)
let test_render_includes_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "test.latency" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 1024.0 ];
  let dump = Metrics.render m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render has %s" needle) true
        (contains_substring dump needle))
    [ "p50"; "p90"; "p99" ]

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "report"
    [
      ( "roundtrip",
        [
          quick "basic attrs" test_roundtrip_basic;
          quick "non-finite floats" test_roundtrip_nonfinite;
          quick "escapes and unicode" test_roundtrip_strings;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "reader",
        [
          quick "truncated tail recovery" test_truncated_tail_recovery;
          quick "malformed lines rejected" test_parse_errors;
          quick "\\u escapes and surrogate pairs" test_json_unicode_escapes;
        ] );
      ( "analysis",
        [
          quick "tree and orphan promotion" test_tree_and_orphans;
          quick "critical path" test_critical_path;
          quick "pool utilization" test_utilization;
        ] );
      ( "reconciliation",
        [
          slow "live hybrid run reconciles" test_reconcile_live_hybrid;
          slow "reconciles after a JSONL round trip" test_summary_through_file;
          slow "hybrid batch reconciles" test_reconcile_hybrid_batch;
          slow "montecarlo trial spans" test_montecarlo_trial_spans;
        ] );
      ( "progress",
        [
          slow "--progress runs bit-identical" test_progress_bit_identity;
          quick "tee collapses disabled branches" test_tee_collapses_disabled;
        ] );
      ( "export",
        [
          quick "lane assignment invariant" test_assign_lanes_invariant;
          quick "chrome JSON re-parses" test_chrome_export_parses;
          quick "folded stacks" test_folded_output;
          quick "prometheus exposition" test_prometheus_export;
          slow "registry rebuilt from a trace" test_registry_of_trace;
          quick "render includes quantiles" test_render_includes_quantiles;
        ] );
    ]
