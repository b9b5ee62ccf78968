(* adcbench: the repository's benchmark.

     adcbench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     adcbench trace [same options]         (= run --trace 1)
     adcbench compare A.json B.json

   The workloads, the metrics, their bounds and the default --seconds
   come from ./BENCHMARK.json. [run] with --workload measures that
   workload in this process, prints its metrics and, as the last line,
   the one-line JSON summary {"correct","attempted","failed","metrics"};
   without it, every workload runs once, each in a fresh child process.
   End-to-end metrics come from untraced runs, per-layer metrics from
   traced ones. Runs are appended to BENCH_RESULTS.json (traced:
   BENCH_LAYERS.json, and the spans go to BENCH_LAYERS.chrome.json). The
   exit code is 1 when any correctness check failed. See
   bench/adcbench/README.md. *)

open Harness

let usage () =
  prerr_endline
    "usage: adcbench run|trace [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       adcbench compare A.json B.json";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
}

let rec parse (schema : Schema.t) o = function
  | [] -> o
  | "--workload" :: w :: rest ->
    if not (List.mem w schema.workloads) then begin
      Printf.eprintf "adcbench: unknown workload %S (one of %s)\n" w (String.concat ", " schema.workloads);
      exit 2
    end;
    parse schema { o with workload = Some w } rest
  | "--seed" :: n :: rest -> parse schema { o with seed = int_of_string n } rest
  | "--seconds" :: s :: rest -> parse schema { o with seconds = float_of_string s } rest
  | "--trace" :: t :: rest -> parse schema { o with trace = t = "1" } rest
  | "--out" :: f :: rest -> parse schema { o with out = Some f } rest
  | arg :: _ ->
    Printf.eprintf "adcbench: unexpected argument %S\n" arg;
    usage ()

let default_out trace = if trace then "BENCH_LAYERS.json" else "BENCH_RESULTS.json"
let chrome_of out = Filename.remove_extension out ^ ".chrome.json"
let spans_of out = Filename.remove_extension out ^ ".spans.jsonl"

let write_spans path events =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (Adc_obs.Sink.event_to_json e);
          output_char oc '\n')
        events)

(* one workload, in this process *)
let run_one o w =
  let ctx =
    {
      Workloads.seed = o.seed;
      seconds = o.seconds;
      smoke = false;
      self = Sys.executable_name;
      root = Sys.getcwd ();
      obs = (if o.trace then Adc_obs.in_memory () else Adc_obs.null);
    }
  in
  let r, library_spans = Workloads.run ctx ~name:w ~trace:o.trace in
  let out = Option.value o.out ~default:(default_out o.trace) in
  Record.append_file out [ r ];
  if o.trace then begin
    let events = Adc_obs.Sink.events ctx.Workloads.obs.Adc_obs.sink @ library_spans in
    write_spans (spans_of out) events;
    Out_channel.with_open_text (chrome_of out) (fun oc ->
        output_string oc (Adc_report.Trace_export.chrome events))
  end;
  Record.print_table r;
  print_endline (Record.summary_line r);
  exit (if r.Record.correct then 0 else 1)

(* every workload once, each in a fresh child process *)
let run_all (schema : Schema.t) o =
  let out = Option.value o.out ~default:(default_out o.trace) in
  let dir = Filename.concat "bench" (Filename.concat "adcbench" "_work") in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let run w =
    let child_out = Filename.concat dir (Printf.sprintf "child-%d-%s.json" (Unix.getpid ()) w) in
    let args =
      [ Sys.executable_name; "run"; "--workload"; w; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0");
        "--out"; child_out ]
    in
    let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
    ignore (Unix.waitpid [] pid);
    let runs =
      match Record.read_file child_out with
      | rs -> rs
      | exception (Sys_error _ | Adc_json.Json.Parse_error _ | Failure _) ->
        [ { Record.workload = w; seed = o.seed; trace = o.trace; correct = false; attempted = 1; failed = 1; metrics = []; extras = [] } ]
    in
    let spans =
      if o.trace && Sys.file_exists (spans_of child_out) then
        (Adc_report.Trace_reader.load_file (spans_of child_out)).Adc_report.Trace_reader.events
      else []
    in
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ child_out; spans_of child_out; chrome_of child_out ];
    (runs, spans)
  in
  let results = List.map run schema.workloads in
  let runs = List.concat_map fst results in
  Record.append_file out runs;
  if o.trace then
    Out_channel.with_open_text (chrome_of out) (fun oc ->
        output_string oc (Adc_report.Trace_export.chrome (List.concat_map snd results)));
  Printf.printf "\n%d runs appended to %s\n" (List.length runs) out;
  let bad = List.filter (fun r -> not r.Record.correct) runs in
  List.iter (fun r -> Printf.printf "INCORRECT: %s seed %d\n" r.Record.workload r.Record.seed) bad;
  exit (if bad = [] then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "ready" :: _ -> Hybrid.ready ()
  | [ "compare"; a; b ] ->
    exit (if Record.compare_files ~schema:(Schema.load Schema.file) a b > 0 then 1 else 0)
  | ("run" | "trace") as cmd :: rest -> (
    let schema = Schema.load Schema.file in
    let o =
      parse schema
        { workload = None; seed = 1; seconds = schema.run_seconds; trace = cmd = "trace"; out = None }
        rest
    in
    match o.workload with Some w -> run_one o w | None -> run_all schema o)
  | _ -> usage ()
