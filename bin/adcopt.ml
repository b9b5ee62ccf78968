(* adcopt: designer-driven topology optimization for pipelined ADCs.

   Command-line front end over the library: candidate enumeration, the
   topology optimizer (equation or full-synthesis evaluation), the
   resolution sweep behind the paper's Fig. 2/3, single-block synthesis,
   and behavioral verification. *)

module Config = Adc_pipeline.Config
module Spec = Adc_pipeline.Spec
module Optimize = Adc_pipeline.Optimize
module Rules = Adc_pipeline.Rules
module Front = Adc_pipeline.Front
module Report = Adc_pipeline.Report
module Behavioral = Adc_pipeline.Behavioral
module Metrics = Adc_pipeline.Metrics
module Montecarlo = Adc_pipeline.Montecarlo
module Deck = Adc_pipeline.Deck
module Synthesizer = Adc_synth.Synthesizer
module Spice = Adc_spice
module Units = Adc_numerics.Units
module Pool = Adc_exec.Pool
module Cancel = Adc_exec.Cancel
module Json = Adc_json.Json
module Api = Adc_api
module Codec = Adc_serve.Codec
module Protocol = Adc_serve.Protocol
module Compute = Adc_serve.Compute
module Store = Adc_serve.Store
module Server = Adc_serve.Server
module Tallies = Adc_serve.Tallies
module Client = Adc_serve.Client
module Transport = Adc_serve.Transport
module Router = Adc_cluster.Router
module Trace_reader = Adc_report.Trace_reader
module Trace_analysis = Adc_report.Trace_analysis
module Trace_export = Adc_report.Trace_export
module Progress = Adc_report.Progress

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments

   Verb parameters (flag spellings, defaults, documentation) are defined
   once in [Adc_api]; [term_of] turns a descriptor into a Cmdliner term,
   so the CLI cannot drift from the daemon's wire decoding — both read
   the same table. Flags that exist only on the CLI (--jobs, --trace,
   --timeout, ...) keep local definitions below. *)

let term_of : type a. a Api.param -> a Term.t =
 fun p ->
  let ainfo = Arg.info p.Api.flags ~docv:p.Api.docv ~doc:p.Api.doc in
  match p.Api.ty with
  | Api.Int -> Arg.(value & opt int p.Api.default & ainfo)
  | Api.Float -> Arg.(value & opt float p.Api.default & ainfo)
  | Api.Mode -> Arg.(value & opt (enum Api.mode_choices) p.Api.default & ainfo)
  | Api.Opt_int -> Arg.(value & opt (some int) p.Api.default & ainfo)
  | Api.Opt_string -> Arg.(value & opt (some string) p.Api.default & ainfo)
  | Api.Int_grid ->
    (* the shared grid syntax: "10,11", "10..13", "10,12..13" *)
    let grid_conv =
      let parse s =
        match Api.parse_int_grid s with
        | Ok ns -> Ok ns
        | Error e -> Error (`Msg e)
      in
      let print fmt ns =
        Format.pp_print_string fmt (String.concat "," (List.map string_of_int ns))
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt grid_conv p.Api.default & ainfo)
  | Api.Float_list -> Arg.(value & opt (list float) p.Api.default & ainfo)
  | Api.Process_file ->
    (* CLI value is a file path; [field_of] reads it and sends the card
       text, which is what the wire field carries — the daemon never
       needs this binary's filesystem *)
    Arg.(value & opt (some string) p.Api.default & ainfo)

let jobs_arg =
  let doc =
    "Domains for the synthesis phase: $(b,0) (default) uses one per \
     available core, $(b,1) forces the sequential path. Results are \
     identical for every value; only the wall-clock time changes."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a JSONL span trace of the run to $(docv) (one JSON object per \
     line; see docs/OBSERVABILITY.md for the schema). Tracing never \
     perturbs the synthesis RNG streams: results are bit-identical with \
     and without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Collect counters/gauges/histograms (evaluator calls, memo hit/miss, \
     pool queue latency, per-domain utilization) and print them after the \
     run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let progress_arg =
  let doc =
    "Draw a live status line on stderr (jobs done/total, evaluator calls, \
     memo hits, elapsed, ETA). The reporter only consumes finished spans — \
     results stay bit-identical to a silent run."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let timeout_arg =
  let doc =
    "Give up after $(docv) seconds: the run returns its best-so-far \
     result, a truncation note goes to stderr, and the exit status is 2. \
     Expiry is cooperative (polled between jobs and restart attempts), \
     so the wall time may overshoot by one attempt."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let store_arg =
  let doc =
    "Persistent design store directory (created if missing): a completed \
     run is recorded under its (k, fs, mode, seed, attempts) key and \
     replayed byte-identically by later runs — including a concurrently \
     running $(b,adcopt serve) pointed at the same directory."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let json_arg =
  let doc =
    "Print the result as one line of canonical JSON on stdout (the same \
     payload the serve daemon returns in its $(b,result) field) instead \
     of the human tables. Metrics and progress go to stderr."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* The one-line refusal (exit 1) of a --store directory, for either
   exception [Store.open_dir] raises; anything else is re-raised. *)
let refuse_store verb dir e =
  let reason =
    match e with
    | Invalid_argument _ -> Unix.ENOTDIR
    | Unix.Unix_error (err, _, _) -> err
    | e -> raise e
  in
  die "adcopt %s: cannot open store %s: %s" verb dir (Unix.error_message reason)

let host_port_of_string s =
  match String.rindex_opt s ':' with
  | None -> die "adcopt: --listen expects HOST:PORT, got %s" s
  | Some i ->
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
    | Some p when p >= 0 -> ((if host = "" then "127.0.0.1" else host), p)
    | Some _ | None -> die "adcopt: bad port in --listen %s" s)

(* 0 = auto-detect; the pool itself clamps to >= 1 *)
let resolve_jobs n = if n <= 0 then Pool.recommended_size () else n

(* ------------------------------------------------------------------ *)
(* the compute verbs: one request each, run through the daemon's path *)

(* A verb parameter as the wire field it decodes from: a compute verb
   hands its flags to the daemon's decoder ([Protocol.parse_request]),
   so the two front ends read one request. [--process FILE] sends the
   card's text, as a client does. *)
let field_of : type a. a Api.param -> (string * Json.t) Term.t =
 fun p ->
  let opt encode = function None -> Json.Null | Some v -> encode v in
  let encode : a -> Json.t =
    match p.Api.ty with
    | Api.Int -> fun n -> Json.Int n
    | Api.Float -> fun f -> Json.Float f
    | Api.Mode -> fun m -> Json.String (Api.mode_name m)
    | Api.Opt_int -> opt (fun n -> Json.Int n)
    | Api.Opt_string -> opt (fun s -> Json.String s)
    | Api.Int_grid -> fun ns -> Json.List (List.map (fun n -> Json.Int n) ns)
    | Api.Float_list -> fun fs -> Json.List (List.map (fun f -> Json.Float f) fs)
    | Api.Process_file ->
      opt (fun path ->
          match In_channel.with_open_bin path In_channel.input_all with
          | text -> Json.String text
          | exception Sys_error msg -> die "adcopt: %s" msg)
  in
  Term.(const (fun v -> (p.Api.key, encode v)) $ term_of p)

(* [adcopt netlist emit] is the wire's [netlist-emit] *)
let cli_name verb =
  String.map (fun c -> if c = '-' then ' ' else c) (Protocol.verb_name verb)

(* The exit of a compute verb that did not succeed, one line naming the
   verb: 1 for a refused request, 2 for a --timeout (the best result
   found so far, if any, is printed above), 125 for the daemon's own
   fault, the status of an uncaught exception. *)
let exit_error verb ((kind : Protocol.error_kind), msg) =
  let status, what =
    match kind with
    | Protocol.Bad_request -> (1, "")
    | Protocol.Deadline_exceeded -> (2, "")
    | _ -> (125, "internal error: ")
  in
  Printf.eprintf "adcopt %s: %s%s\n" (cli_name verb) what msg;
  exit status

let print_payload payload = print_endline (Json.to_string payload)

let print_optimize_human (run : Optimize.run) =
  print_string (Report.candidate_summary run);
  print_string (Report.fig1_table run);
  (match run.Optimize.mode with
  | `Equation -> ()
  | `Hybrid | `Hybrid_verified ->
    Printf.printf
      "synthesis: %d evaluator calls, %d cold / %d warm jobs, %.1f s on %d domain(s)\n"
      run.Optimize.synthesis_evaluations run.Optimize.cold_jobs
      run.Optimize.warm_jobs run.Optimize.wall_time_s run.Optimize.domains);
  Printf.printf "optimum: %s at %s\n"
    (Config.to_string (Optimize.optimum_config run))
    (Units.format_power run.Optimize.optimum.Optimize.p_total);
  let full =
    Adc_pipeline.Power_model.full_converter run.Optimize.spec
      (Optimize.optimum_config run)
  in
  Printf.printf
    "full converter (equation model): %s = S/H %s + front stages + %d-stage backend\n"
    (Units.format_power full.Adc_pipeline.Power_model.p_full)
    (Units.format_power full.Adc_pipeline.Power_model.p_sha)
    (List.length full.Adc_pipeline.Power_model.backend)

(* The human rendering of a computed value; [elapsed] is this process's
   wall clock around the computation (payloads carry no wall time). *)
let print_human ~elapsed = function
  | Compute.Ping -> print_endline "pong"
  | Compute.Enumerate spec ->
    let k = spec.Spec.k in
    let cands = Config.enumerate_leading ~k ~backend_bits:(Spec.backend_bits spec) in
    Printf.printf "%d-bit pipelined ADC: %d candidate configurations (backend %d bits)\n"
      k (List.length cands) (Spec.backend_bits spec);
    List.iter (fun c -> Printf.printf "  %s\n" (Config.to_string c)) cands;
    let jobs = Spec.distinct_jobs spec cands in
    Printf.printf "%d distinct MDAC jobs to synthesize:\n" (List.length jobs);
    List.iter (fun j -> Printf.printf "  %s\n" (Spec.job_to_string j)) jobs
  | Compute.Optimize run -> print_optimize_human run
  | Compute.Batch b ->
    List.iter
      (fun (run : Optimize.run) ->
        Printf.printf "=== %d-bit converter ===\n" run.Optimize.spec.Spec.k;
        print_optimize_human run)
      b.Optimize.batch_runs;
    Printf.printf
      "batch: %d specs, %d job occurrences fused into %d distinct syntheses, \
       %.1f s on %d domain(s)\n"
      (List.length b.Optimize.batch_runs) b.Optimize.job_occurrences
      b.Optimize.distinct_syntheses b.Optimize.batch_wall_s
      b.Optimize.batch_domains
  | Compute.Sweep { runs; chart } ->
    print_string (Report.fig2_table runs);
    List.iter
      (fun (r : Optimize.run) ->
        if r.Optimize.mode <> `Equation then
          Printf.printf
            "  %2d-bit synthesis: %d evaluator calls, done %.1f s into the batch on %d domain(s)\n"
            r.Optimize.spec.Spec.k r.Optimize.synthesis_evaluations
            r.Optimize.wall_time_s r.Optimize.domains)
      runs;
    print_string (Rules.render chart)
  | Compute.Pareto fr -> print_string (Front.render fr)
  | Compute.Synth { job; requirements = req; attempts; restarts = r } ->
    let caps = req.Adc_mdac.Mdac_stage.caps in
    Printf.printf "MDAC job %s block specs:\n" (Spec.job_to_string job);
    Printf.printf "  interstage gain      %g\n" caps.Adc_mdac.Caps.gain;
    Printf.printf "  sampling array       %s\n"
      (Units.format_cap caps.Adc_mdac.Caps.c_total);
    Printf.printf "  feedback factor      %.3f\n" caps.Adc_mdac.Caps.beta;
    Printf.printf "  DC gain              >= %.0f\n" req.Adc_mdac.Mdac_stage.a0_min;
    Printf.printf "  unity-gain bandwidth >= %s\n"
      (Units.format_freq req.Adc_mdac.Mdac_stage.gbw_min_hz);
    Printf.printf "  slew rate            >= %.0f V/us\n"
      (req.Adc_mdac.Mdac_stage.sr_min /. 1e6);
    (match r.Optimize.best with
    | None -> Printf.eprintf "synthesis failed on all %d attempts\n" attempts
    | Some sol ->
      Printf.printf
        "synthesized cell: %s, %s, best of %d attempts, %d evaluations, %.1f s\n"
        (Units.format_power sol.Synthesizer.power)
        (if sol.Synthesizer.feasible then "all specs met"
         else Printf.sprintf "violation %.3f" sol.Synthesizer.violation)
        attempts r.Optimize.evaluations elapsed;
      List.iter (fun (k, v) -> Printf.printf "  %-10s %.4g\n" k v) sol.Synthesizer.metrics)
  | Compute.Netlist_emit e -> print_string e.Deck.deck
  | Compute.Montecarlo { spec; plan; trials; sweep } ->
    Printf.printf
      "Monte-Carlo yield of the %d-bit %s pipeline vs comparator offsets\n\
       (redundancy budget %.0f mV; %d trials per point)\n"
      spec.Spec.k (Config.to_string plan.Montecarlo.stage_config)
      (plan.Montecarlo.budget *. 1e3) trials;
    List.iter
      (fun (sigma, (r : Montecarlo.report)) ->
        Printf.printf "  sigma %6.1f mV: yield %5.1f%%  mean ENOB %.2f  p05 %.2f\n"
          (sigma *. 1e3) (100.0 *. r.Montecarlo.yield) r.Montecarlo.enob_mean
          r.Montecarlo.enob_p05)
      sweep

(* A design-store hit in human mode: the stored payload has no wall-time
   or domain figures (they are not part of the deterministic result), so
   it replays as a summary read from the payload. *)
let print_stored_human verb payload =
  let num json name =
    match Json.member name json with
    | Some (Json.Float f) -> f
    | Some (Json.Int n) -> float_of_int n
    | _ -> Float.nan
  in
  let str json path =
    match Json.member_path path json with Some (Json.String s) -> s | _ -> "?"
  in
  match verb with
  | Protocol.Pareto ->
    let cells = Codec.pareto_grid payload in
    Printf.printf
      "Pareto front (replayed from the design store): %d cells, %d on the front\n"
      (List.length cells)
      (List.length (List.filter fst cells));
    List.iter
      (fun (on_front, cell) ->
        let fom = Option.value (Json.member "fom" cell) ~default:Json.Null in
        Printf.printf "%s K=%-3.0f fs=%-9.6g MHz  %s  %.1f fJ/step, %.1f dB\n"
          (if on_front then "*" else " ")
          (num cell "k") (num cell "fs_mhz")
          (str cell "optimize.optimum")
          (num fom "walden_fj_per_step")
          (num fom "schreier_db"))
      cells
  | _ ->
    Printf.printf "optimum: %s at %s (replayed from the design store)\n"
      (str payload "optimum")
      (Units.format_power (num payload "p_total"))

(* [--json] prints the payload: a streaming verb's point lines went out
   through [emit] already, and a batch prints one optimize payload per
   line, in input order, line i byte-identical to
   `adcopt optimize -k <ks_i> --json`. The fused-work counters always go
   to stderr, so --json stdout stays a clean payload stream for cmp. *)
let print_outcome ~json verb ~elapsed = function
  | Compute.Stored payload ->
    if json then print_payload payload else print_stored_human verb payload
  | Compute.Computed { value; payload; _ } -> (
    (match value with
    | Compute.Batch _ when json -> (
      match Json.member "runs" payload with
      | Some (Json.List runs) -> List.iter print_payload runs
      | _ -> ())
    | _ when json -> print_payload payload
    | _ -> print_human ~elapsed value);
    match value with
    | Compute.Batch b ->
      Printf.eprintf
        "adcopt batch: %d specs, %d job occurrences, %d distinct syntheses\n"
        (List.length b.Optimize.batch_runs) b.Optimize.job_occurrences
        b.Optimize.distinct_syntheses
    | Compute.Pareto fr ->
      Printf.eprintf
        "adcopt pareto: %d cells, %d job occurrences, %d distinct syntheses, \
         %d on the front\n"
        (List.length fr.Front.points) fr.Front.job_occurrences
        fr.Front.distinct_syntheses
        (List.length fr.Front.front)
    | _ -> ())

(* Run one compute verb on a one-shot runtime: decode the flags as a
   request, refuse it before opening the trace if [Compute] would, run
   it through [Compute.run] (the daemon's own path, store included),
   print it, then exit 2 if it was truncated. The runtime's pool is
   spawned only if the request synthesizes, and is shut down before the
   metrics table prints. *)
let compute ~jobs ?timeout ?store ~json ?trace ~metrics ~progress ?print verb
    fields =
  let req =
    match
      Protocol.parse_request
        (Json.Obj (("verb", Json.String (Protocol.verb_name verb)) :: fields))
    with
    | Ok req -> req
    | Error (kind, msg, _) -> exit_error verb (kind, msg)
  in
  let total =
    match Compute.validate req with Ok n -> n | Error e -> exit_error verb e
  in
  let jobs = resolve_jobs jobs in
  let store =
    Option.map
      (fun dir -> try Store.open_dir dir with e -> refuse_store (cli_name verb) dir e)
      store
  in
  let obs =
    try Adc_obs.create ?trace ~metrics ()
    with Sys_error msg -> die "adcopt: cannot open trace file: %s" msg
  in
  let progress =
    if progress then Some (Progress.create ~total ~domains:jobs ()) else None
  in
  let obs =
    match progress with
    | None -> obs
    | Some p ->
      { obs with Adc_obs.sink = Adc_obs.Sink.tee obs.Adc_obs.sink (Progress.sink p) }
  in
  let tallies = Tallies.attach obs.Adc_obs.metrics in
  (* flush the trace, end the status line, print the metrics table (on
     stderr when stdout carries a payload or a deck) *)
  let finish_obs () =
    Option.iter Progress.finish progress;
    Tallies.fold tallies;
    if Adc_obs.Metrics.enabled obs.Adc_obs.metrics then
      (if json || verb = Protocol.Netlist_emit then prerr_string else print_string)
        (Adc_obs.Metrics.render obs.Adc_obs.metrics);
    Adc_obs.close obs
  in
  let shared = lazy (Optimize.create_shared ~obs ~jobs ()) in
  let runtime =
    { Compute.shared = (fun () -> Lazy.force shared); obs; store }
  in
  let emit point = if json then print_payload point in
  let t0 = Unix.gettimeofday () in
  let cancel =
    match timeout with
    | None -> Cancel.never
    | Some after_s -> Cancel.with_deadline ~after_s ()
  in
  let result = Compute.run runtime req ~cancel ~emit in
  let elapsed = Unix.gettimeofday () -. t0 in
  if Lazy.is_val shared then Optimize.shutdown_shared (Lazy.force shared);
  match result with
  | Error e ->
    finish_obs ();
    exit_error verb e
  | Ok outcome ->
    let print = Option.value print ~default:(print_outcome ~json verb) in
    print ~elapsed outcome;
    finish_obs ();
    (match outcome with
    | Compute.Computed { truncated = true; _ } ->
      exit_error verb
        ( Protocol.Deadline_exceeded,
          "timed out; results above are the best found so far" )
    | _ -> ())

(* The command of a compute verb. [params] are its request fields;
   [pool] adds --jobs and --timeout, [observed] --trace, --metrics and
   --progress, [store] and [json] their flags. A verb without a flag
   runs at that flag's default. *)
let compute_cmd ?name ?(pool = true) ?(observed = true) ?(store = false)
    ?(json = false) ?(print = Term.const None) verb ~doc params =
  let flag on term off = if on then term else Term.const off in
  let run fields jobs timeout store json trace metrics progress print =
    compute ~jobs ?timeout ?store ~json ?trace ~metrics ~progress ?print verb
      fields
  in
  Cmd.v
    (Cmd.info (Option.value name ~default:(Protocol.verb_name verb)) ~doc)
    Term.(const run
          $ List.fold_right
              (fun t acc -> const List.cons $ t $ acc)
              params (const [])
          $ flag pool jobs_arg 1 $ flag pool timeout_arg None
          $ flag store store_arg None $ flag json json_arg false
          $ flag observed trace_arg None $ flag observed metrics_arg false
          $ flag observed progress_arg false $ print)

let spec_fields = [ field_of Api.mode; field_of Api.seed; field_of Api.attempts;
                    field_of Api.process_card ]

let enumerate_cmd =
  compute_cmd Protocol.Enumerate ~pool:false ~observed:false
    ~doc:"Enumerate the stage-resolution candidates (paper Section 2)."
    [ field_of Api.k; field_of Api.fs_mhz ]

let optimize_cmd =
  compute_cmd Protocol.Optimize ~store:true ~json:true
    ~doc:"Run the topology optimization for one converter spec."
    (field_of Api.k :: field_of Api.fs_mhz :: spec_fields)

let sweep_cmd =
  compute_cmd Protocol.Sweep
    ~doc:"Sweep resolutions and derive the optimum-candidate rules (Fig. 2/3)."
    (field_of Api.k_from :: field_of Api.k_to :: field_of Api.fs_mhz
    :: spec_fields)

let batch_cmd =
  compute_cmd Protocol.Batch ~json:true
    ~doc:
      "Optimize several resolutions as one fused batch: each spec's distinct \
       MDAC jobs are keyed, deduplicated across the whole batch, and the \
       union is synthesized once, hardest-first, over a shared domain pool. \
       Every per-spec result is byte-identical to its own one-shot \
       $(b,adcopt optimize) run."
    (field_of Api.ks :: field_of Api.fs_mhz :: spec_fields)

let pareto_cmd =
  compute_cmd Protocol.Pareto ~store:true ~json:true
    ~doc:
      "Map the FoM Pareto front over the resolution × sampling-rate grid: \
       every (k, fs) cell is optimized in one fused batch (MDAC jobs shared \
       between cells are synthesized once), each optimum gets its \
       energy-per-conversion-step and Walden/Schreier figures of merit, and \
       the dominated cells are pruned. With $(b,--json), front points print \
       as NDJSON lines the moment their membership is final, followed by \
       one summary line; each point's $(b,optimize) object is byte-identical \
       to the one-shot $(b,adcopt optimize --json) run at the same \
       parameters. See docs/PARETO.md."
    (field_of Api.ks :: field_of Api.fs_list :: spec_fields)

(* the one MDAC cell of [synth] and [netlist emit] *)
let cell_fields =
  [ field_of Api.m; field_of Api.bits; field_of Api.fs_mhz; field_of Api.seed;
    field_of Api.attempts; field_of Api.process_card ]

let synth_cmd =
  compute_cmd Protocol.Synth
    ~doc:"Synthesize one MDAC amplifier with the hybrid flow." cell_fields

let montecarlo_cmd =
  compute_cmd Protocol.Montecarlo ~pool:false
    ~doc:"Monte-Carlo yield of a configuration under comparator offsets."
    [ field_of Api.k; field_of Api.fs_mhz; field_of Api.config;
      field_of Api.trials; field_of Api.seed; field_of Api.process_card ]

(* ------------------------------------------------------------------ *)
(* the CLI-only verbs: no request, the same refusals *)

(* a spec or job the library refuses ends the command as [Compute]
   refuses a request: exit 1 with "adcopt <verb>: <message>" *)
let checked verb f =
  try f () with Invalid_argument msg -> die "adcopt %s: %s" verb msg

let spec_of verb k fs = checked verb (fun () -> Spec.make ~k ~fs:(fs *. 1e6) ())

let k_arg = term_of Api.k
let fs_arg = term_of Api.fs_mhz

(* behavioral *)

let behavioral k fs config_str =
  let spec = spec_of "behavioral" k fs in
  let config =
    match config_str with
    | Some s -> checked "behavioral" (fun () -> Config.of_string s)
    | None -> Optimize.optimum_config (Optimize.run ~mode:`Equation spec)
  in
  let adc = Behavioral.ideal spec config in
  Printf.printf "behavioral %d-bit ADC, leading stages %s + ideal %d-bit backend\n" k
    (Config.to_string config)
    (k - Config.effective_bits config);
  let s = Metrics.static_linearity adc in
  Printf.printf "  DNL %.3f LSB, INL %.3f LSB, %d missing codes\n" s.Metrics.dnl_max
    s.Metrics.inl_max s.Metrics.missing_codes;
  let d = Metrics.dynamic_performance adc ~fs:spec.Spec.fs ~f_in:(spec.Spec.fs /. 11.0) in
  Printf.printf "  SNDR %.1f dB, ENOB %.2f bits, SFDR %.1f dB (bin %d of %d)\n"
    d.Metrics.sndr_db d.Metrics.enob d.Metrics.sfdr_db d.Metrics.signal_bin d.Metrics.n_fft

let behavioral_cmd =
  let doc = "Behavioral verification (digital correction, INL/DNL, ENOB)." in
  Cmd.v (Cmd.info "behavioral" ~doc) Term.(const behavioral $ k_arg $ fs_arg $ term_of Api.config)

(* corners *)

let corners m bits fs seed =
  let spec = spec_of "corners" 13 fs in
  let job = checked "corners" (fun () -> Spec.make_job ~m ~input_bits:bits) in
  let req = Spec.stage_requirements spec job in
  match Synthesizer.synthesize ~seed spec.Spec.process req with
  | Error e -> Printf.eprintf "synthesis failed: %s\n" e
  | Ok sol ->
    Printf.printf "corner sign-off of the synthesized %s cell (%s nominal):\n"
      (Spec.job_to_string job)
      (Units.format_power sol.Adc_synth.Synthesizer.power);
    let results =
      Adc_synth.Corner_check.check spec.Spec.process req
        sol.Adc_synth.Synthesizer.sizing
    in
    print_string (Adc_synth.Corner_check.render results)

let corners_cmd =
  let doc = "Synthesize one MDAC cell and re-verify it across process corners." in
  Cmd.v (Cmd.info "corners" ~doc)
    Term.(const corners $ term_of Api.m $ term_of Api.bits $ fs_arg $ term_of Api.seed)

(* ------------------------------------------------------------------ *)
(* area *)

let area k fs =
  let spec = spec_of "area" k fs in
  let cands = Config.enumerate_leading ~k ~backend_bits:(Spec.backend_bits spec) in
  Printf.printf "estimated area of the %d-bit candidates:\n" k;
  List.iter
    (fun (a : Adc_pipeline.Area_model.config_area) ->
      Printf.printf "  %-14s %8.3f mm^2\n"
        (Config.to_string a.Adc_pipeline.Area_model.config)
        (a.Adc_pipeline.Area_model.total *. 1e6))
    (Adc_pipeline.Area_model.rank spec cands)

let area_cmd =
  let doc = "Rank the candidates by estimated silicon area." in
  Cmd.v (Cmd.info "area" ~doc) Term.(const area $ k_arg $ fs_arg)

(* ------------------------------------------------------------------ *)
(* netlist: SPICE-deck interop *)

let deck_output_arg =
  let doc = "Write the deck to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let write_output output text =
  match output with
  | None -> print_string text
  | Some path -> (
    try Out_channel.with_open_text path (fun oc -> output_string oc text)
    with Sys_error msg -> die "adcopt: cannot write %s: %s" path msg)

let netlist_emit_cmd =
  (* the deck renders the synth winner's switched-capacitor bench; it is
     the same best-of-N identity as `adcopt synth` and the serve verb *)
  let write output ~elapsed:_ = function
    | Compute.Computed { value = Compute.Netlist_emit e; _ } ->
      write_output output e.Deck.deck
    | _ -> ()
  in
  compute_cmd Protocol.Netlist_emit ~name:"emit"
    ~print:Term.(const (fun output -> Some (write output)) $ deck_output_arg)
    ~doc:
      "Synthesize one MDAC cell (best of N restarts, like $(b,adcopt synth)) \
       and print its switched-capacitor bench — OTA core, sampling network, \
       phase switches and sources at the servo'd operating point — as a \
       canonical SPICE deck. The deck is flat and self-contained (process \
       $(b,.param)/$(b,.model) cards included) and is an emit→parse→emit \
       fixpoint: feeding it back through $(b,adcopt netlist parse --emit -) \
       reproduces it byte for byte."
    cell_fields

let deck_file_arg =
  let doc = "Deck file to parse, or $(b,-) to read stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let emit_to_arg =
  let doc =
    "Re-emit the parsed netlist as a canonical deck to $(docv) ($(b,-) for \
     stdout) instead of printing the summary. Parse→emit performs at most \
     one normalization (subcircuits flatten, device names gain their \
     element-letter prefix, switch schedules sample to a static t = 0 \
     state), after which it is a fixpoint — CI $(b,cmp)s the second pass \
     against the first."
  in
  Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"FILE" ~doc)

let netlist_parse file emit_to =
  let text =
    if file = "-" then In_channel.input_all stdin
    else
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error msg -> die "adcopt netlist parse: %s" msg
  in
  let where = if file = "-" then "" else file ^ ": " in
  match Spice.parse text with
  | Error e ->
    die "adcopt netlist parse: %s%s" where (Spice.error_to_string e)
  | Ok (nl, p) -> (
    match emit_to with
    | Some "-" -> print_string (Spice.emit nl)
    | Some path -> write_output (Some path) (Spice.emit nl)
    | None ->
      let devices = Adc_circuit.Netlist.devices nl in
      Printf.printf
        "%s: %d devices, %d nodes, %d branch currents (process %s, %g V)\n"
        (if file = "-" then "deck" else file)
        (List.length devices)
        (Adc_circuit.Netlist.node_count nl)
        (Adc_circuit.Netlist.branch_count nl)
        p.Adc_circuit.Process.name p.Adc_circuit.Process.vdd;
      match Adc_circuit.Netlist.validate nl with
      | Ok () -> ()
      | Error msg -> Printf.printf "  connectivity: %s\n" msg)

let netlist_parse_cmd =
  let doc =
    "Parse a SPICE deck (elements R/C/V/I/E/M/S, $(b,.subckt) hierarchy, \
     level-1 $(b,.model) cards, $(b,.param), engineering suffixes, \
     continuation lines) into the internal netlist and report what it \
     holds, or $(b,--emit) it back out in canonical form. Malformed decks \
     fail with the offending line number."
  in
  Cmd.v (Cmd.info "parse" ~doc)
    Term.(const netlist_parse $ deck_file_arg $ emit_to_arg)

let netlist_cmd =
  let doc =
    "SPICE netlist interop: emit synthesized MDAC benches as canonical \
     decks, parse and round-trip external decks (see docs/NETLIST.md)."
  in
  Cmd.group (Cmd.info "netlist" ~doc) [ netlist_emit_cmd; netlist_parse_cmd ]

(* ------------------------------------------------------------------ *)
(* trace: offline analysis of a recorded JSONL trace *)

let load_trace file =
  if file = "-" then Trace_reader.load_channel stdin
  else
    match Trace_reader.load_file file with
    | load -> load
    | exception Sys_error msg -> die "adcopt: cannot read trace: %s" msg

let trace_file_arg =
  let doc =
    "JSONL trace produced by --trace, or $(b,-) to read from stdin (e.g. \
     piping a live daemon's $(b,dump-trace) stream)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_summary file =
  print_string (Trace_analysis.render_summary (load_trace file))

let trace_summary_cmd =
  let doc =
    "Per-span-name self/total time table, job and trial totals, memo hit \
     rate, and reconciliation of job-span sums against the run's own \
     counters."
  in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const trace_summary $ trace_file_arg)

let trace_critical_path file =
  let tree = Trace_analysis.tree_of_events (load_trace file).Trace_reader.events in
  print_string
    (Trace_analysis.render_critical_path (Trace_analysis.critical_path tree))

let trace_critical_path_cmd =
  let doc = "The latest-ending span chain — the dependency chain that set the makespan." in
  Cmd.v (Cmd.info "critical-path" ~doc)
    Term.(const trace_critical_path $ trace_file_arg)

let trace_utilization file =
  match Trace_analysis.utilization (load_trace file).Trace_reader.events with
  | Some u -> print_string (Trace_analysis.render_utilization u)
  | None ->
    die "adcopt: no pool.task spans in %s (equation-mode runs never build a pool)"
      file

let trace_utilization_cmd =
  let doc = "Per-domain busy time and a busy-fraction timeline from the pool.task spans." in
  Cmd.v (Cmd.info "utilization" ~doc)
    Term.(const trace_utilization $ trace_file_arg)

let format_arg =
  let doc =
    "Output format: $(b,chrome) (trace-event JSON for Perfetto / \
     chrome://tracing), $(b,folded) (collapsed stacks for flamegraph.pl \
     and speedscope), or $(b,prometheus) (text exposition of the metrics \
     reconstructed from the trace)."
  in
  let formats = [ ("chrome", `Chrome); ("folded", `Folded); ("prometheus", `Prometheus) ] in
  Arg.(value & opt (enum formats) `Chrome & info [ "format" ] ~docv:"FMT" ~doc)

let output_arg =
  let doc = "Write to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_export format output file =
  let events = (load_trace file).Trace_reader.events in
  let payload =
    match format with
    | `Chrome -> Trace_export.chrome events
    | `Folded -> Trace_export.folded events
    | `Prometheus ->
      Trace_export.prometheus
        (Adc_obs.Metrics.snapshot (Trace_export.registry_of_trace events))
  in
  write_output output payload

let trace_export_cmd =
  let doc = "Convert a trace to Chrome/Perfetto JSON, folded stacks, or Prometheus text." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const trace_export $ format_arg $ output_arg $ trace_file_arg)

let trace_cmd =
  let doc = "Analyze and export a recorded span trace (see docs/OBSERVABILITY.md)." in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_summary_cmd; trace_critical_path_cmd; trace_utilization_cmd;
      trace_export_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the synthesis service *)

let default_socket = "/tmp/adcopt.sock"

let serve_socket_arg =
  let doc = "Unix-domain socket to listen on." in
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH" ~doc)

let listen_arg =
  let doc = "Also listen on TCP $(docv) (e.g. 127.0.0.1:7400)." in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

let queue_depth_arg =
  let doc =
    "Admission queue bound: with $(docv) requests already waiting, new \
     work is refused immediately with an $(b,overloaded) error."
  in
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Request worker threads draining the admission queue." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in seconds, applied to requests that \
     carry no $(b,deadline_ms) of their own."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let metrics_addr_arg =
  let doc =
    "Also listen on $(docv) for the operations plane: plain HTTP \
     $(b,GET /metrics) (live Prometheus exposition — the same text the \
     offline $(b,adcopt trace export --format prometheus) renders), \
     $(b,GET /healthz) and $(b,GET /readyz)."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-addr" ] ~docv:"HOST:PORT" ~doc)

let log_level_arg =
  let doc =
    "Daemon log verbosity on stderr: $(b,debug), $(b,info), $(b,warn), \
     $(b,error), or $(b,off)."
  in
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_format_arg =
  let doc = "Log line format: $(b,text) or $(b,json) (one object per line)." in
  let formats = [ ("text", Adc_obs.Log.Text); ("json", Adc_obs.Log.Jsonl) ] in
  Arg.(value & opt (enum formats) Adc_obs.Log.Text
       & info [ "log-format" ] ~docv:"FMT" ~doc)

let slow_ms_arg =
  let doc =
    "Log a $(b,slow request) warning for any request whose computation \
     exceeds $(docv) milliseconds."
  in
  Arg.(value & opt (some float) (Some 1000.0)
       & info [ "slow-ms" ] ~docv:"MS" ~doc)

let flight_capacity_arg =
  let doc =
    "Flight-recorder size: keep the most recent $(docv) finished spans \
     in memory for $(b,dump-trace) / SIGUSR1 (0 disables)."
  in
  Arg.(value & opt int 8192 & info [ "flight-capacity" ] ~docv:"N" ~doc)

let flight_dump_arg =
  let doc =
    "Where SIGUSR1 writes the flight-recorder JSONL (default: the \
     socket path + $(b,.flight.jsonl))."
  in
  Arg.(value & opt (some string) None
       & info [ "flight-dump" ] ~docv:"FILE" ~doc)

let store_max_entries_arg =
  let doc =
    "Cap the $(b,--store) directory at $(docv) entries with an \
     LRU-by-mtime sweep (at startup and after each write), so a \
     long-lived daemon answering many distinct cells cannot grow the \
     store without bound."
  in
  Arg.(value & opt (some int) None
       & info [ "store-max-entries" ] ~docv:"N" ~doc)

let node_id_arg =
  let doc =
    "This process's cluster identity, stamped on every log line \
     (alongside the req_id) and surfaced in the $(b,stats) payload so \
     merged fleet logs and aggregated stats stay attributable. Default: \
     the socket file's basename."
  in
  Arg.(value & opt (some string) None & info [ "node-id" ] ~docv:"ID" ~doc)

(* a daemon's cluster identity (default: the socket's basename) and its
   logger, which stamps that identity on every line *)
let node_log verb socket node_id log_level log_format =
  let node_id = Option.value node_id ~default:(Filename.basename socket) in
  if log_level = "off" then (node_id, Adc_obs.Log.null)
  else
    match Adc_obs.Log.level_of_string log_level with
    | Some level ->
      (node_id, Adc_obs.Log.create ~level ~format:log_format ~node_id ())
    | None -> die "adcopt %s: unknown --log-level %S" verb log_level

let serve socket listen queue_depth workers jobs store store_max_entries
    deadline trace metrics metrics_addr log_level log_format slow_ms
    flight_capacity flight_dump node_id =
  let jobs = resolve_jobs jobs in
  let tcp = Option.map host_port_of_string listen in
  let node_id, log = node_log "serve" socket node_id log_level log_format in
  (* the daemon's registry is always live — the ops plane scrapes it;
     --metrics additionally prints the table at exit as before *)
  let obs =
    try Adc_obs.create ?trace ~metrics:true ()
    with Sys_error msg -> die "adcopt: cannot open trace file: %s" msg
  in
  let cfg =
    {
      Server.socket_path = Some socket;
      tcp;
      queue_depth;
      workers;
      jobs;
      store_dir = store;
      store_max_entries;
      default_deadline_s = deadline;
      obs;
      metrics_addr = Option.map host_port_of_string metrics_addr;
      log;
      slow_ms;
      flight_capacity;
      node_id = Some node_id;
    }
  in
  let srv =
    try Server.create cfg with
    | Transport.Listen_failed e ->
      die "adcopt serve: cannot listen (%s)" (Transport.error_message e)
    | (Invalid_argument _ | Unix.Unix_error _) as e when Option.is_some store ->
      (* the config names a socket, so these come from the store, which
         opens before any listener binds *)
      refuse_store "serve" (Option.get store) e
  in
  (* SIGTERM/SIGINT begin the graceful drain: stop accepting, finish
     queued and in-flight work, flush, then Server.run returns *)
  let request_stop _ = Server.stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGUSR1 dumps the flight recorder without stopping anything *)
  let dump_path =
    match flight_dump with Some p -> p | None -> socket ^ ".flight.jsonl"
  in
  let dump_flight _ =
    match Server.flight_events srv with
    | None ->
      Adc_obs.Log.warn log
        "SIGUSR1 ignored: flight recorder disabled (--flight-capacity 0)"
    | Some (events, dropped) -> (
      try
        let oc = open_out dump_path in
        List.iter
          (fun e ->
            output_string oc (Adc_obs.Sink.event_to_json e);
            output_char oc '\n')
          events;
        close_out oc;
        Adc_obs.Log.info log
          ~fields:
            [
              ("events", Adc_obs.Sink.Int (List.length events));
              ("dropped", Adc_obs.Sink.Int dropped);
              ("path", Adc_obs.Sink.String dump_path);
            ]
          "flight recorder dumped"
      with Sys_error msg ->
        Adc_obs.Log.error log ("flight dump failed: " ^ msg))
  in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle dump_flight);
  Adc_obs.Log.info log
    ~fields:
      ([
         ("socket", Adc_obs.Sink.String socket);
         ("workers", Adc_obs.Sink.Int workers);
         ("jobs", Adc_obs.Sink.Int jobs);
       ]
      @ (match (tcp, Server.tcp_port srv) with
        | Some (h, _), Some p ->
          [ ("tcp", Adc_obs.Sink.String (Printf.sprintf "%s:%d" h p)) ]
        | _ -> [])
      @ (match (cfg.Server.metrics_addr, Server.metrics_port srv) with
        | Some (h, _), Some p ->
          [ ("metrics", Adc_obs.Sink.String (Printf.sprintf "%s:%d" h p)) ]
        | _ -> [])
      @ match store with
        | Some d -> [ ("store", Adc_obs.Sink.String d) ]
        | None -> [])
    "listening";
  Server.run srv;
  Adc_obs.Log.info log "drained, bye";
  if metrics then prerr_string (Adc_obs.Metrics.render obs.Adc_obs.metrics);
  Adc_obs.close obs;
  exit 0

let serve_cmd =
  let doc =
    "Serve synthesis requests over a socket (newline-delimited JSON; see \
     docs/SERVER.md). Results are deterministic and shared: repeated \
     requests replay from the in-memory cache or the $(b,--store) \
     directory byte-identically. $(b,--metrics-addr) adds a live \
     Prometheus/health HTTP listener; the flight recorder keeps the \
     last spans in memory for the $(b,dump-trace) verb and SIGUSR1."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve $ serve_socket_arg $ listen_arg $ queue_depth_arg
          $ workers_arg $ jobs_arg $ store_arg $ store_max_entries_arg
          $ deadline_arg $ trace_arg $ metrics_arg $ metrics_addr_arg
          $ log_level_arg $ log_format_arg $ slow_ms_arg $ flight_capacity_arg
          $ flight_dump_arg $ node_id_arg)

(* ------------------------------------------------------------------ *)
(* call: one request against a running daemon *)

let connect_arg =
  let doc = "Connect over TCP to $(docv) instead of the Unix socket." in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let extract_arg =
  let doc =
    "Print only this response field (canonical JSON). Dotted paths \
     descend into nested objects and arrays: $(b,--extract result) of a \
     served $(b,optimize) is byte-identical to $(b,adcopt optimize \
     --json), and $(b,--extract result.p_total) or \
     $(b,--extract result.runs.0) reach inside it. On a streaming verb \
     the path applies to every line, so $(b,--extract result) of \
     $(b,dump-trace) emits plain trace JSONL ready for \
     $(b,adcopt trace summary -)."
  in
  Arg.(value & opt (some string) None & info [ "extract" ] ~docv:"PATH" ~doc)

let request_json_arg =
  let doc = "The request object, e.g. '{\"verb\":\"optimize\",\"k\":12}'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)

let connect_retries_arg =
  let doc =
    "Retry a failed connect up to $(docv) more times with exponential \
     backoff (50 ms doubling, capped at 1 s) — lets scripts start a \
     daemon and call it without sleep loops."
  in
  Arg.(value & opt int 0 & info [ "connect-retries" ] ~docv:"N" ~doc)

let call socket connect extract connect_retries request =
  let request =
    match Json.parse request with
    | json -> json
    | exception Json.Parse_error msg -> die "adcopt call: bad request: %s" msg
  in
  (* stamp the protocol version this client speaks, unless the caller
     pinned one explicitly (the version-mismatch CI check does) *)
  let request =
    match request with
    | Json.Obj fields when not (List.mem_assoc "version" fields) ->
      Json.Obj (fields @ [ ("version", Json.Int Api.protocol_version) ])
    | _ -> request
  in
  let connect_once () =
    match connect with
    | Some hp -> let h, p = host_port_of_string hp in Client.connect_tcp h p
    | None -> Client.connect_unix socket
  in
  (* connect errors (refused, missing socket, timed out) are the
     retryable family; anything else is a real bug and dies at once *)
  let rec connect_retrying attempt =
    match connect_once () with
    | client -> client
    | exception Unix.Unix_error (e, _, _) ->
      if attempt >= connect_retries then
        die "adcopt call: cannot connect: %s" (Unix.error_message e)
      else begin
        let backoff_ms = min (50. *. (2. ** float_of_int attempt)) 1000. in
        Unix.sleepf (backoff_ms /. 1e3);
        connect_retrying (attempt + 1)
      end
  in
  let client = connect_retrying 0 in
  let response =
    (* non-final lines (a streaming verb's incremental results) print as
       they arrive; --extract applies to each of them as well as to the
       final line, so e.g. [--extract result] of a dump-trace turns the
       stream into plain trace JSONL. A point line lacking the path is
       skipped silently (only the final line must carry it). *)
    match
      Client.request_stream client request ~on_line:(fun line ->
          match extract with
          | None -> print_endline (Json.to_string line)
          | Some path -> (
            match Json.member_path path line with
            | Some v -> print_endline (Json.to_string v)
            | None -> ()))
    with
    | r -> r
    | exception End_of_file -> die "adcopt call: server closed the connection"
  in
  Client.close client;
  (match extract with
  | None -> print_endline (Json.to_string response)
  | Some path -> (
    match Json.member_path path response with
    | Some v -> print_endline (Json.to_string v)
    | None -> die "adcopt call: no %S field in the response" path));
  match Json.member "ok" response with
  | Some (Json.Bool false) ->
    (match Json.member "error" response with
    | Some (Json.String "unsupported_version") ->
      let pp = function
        | Some (Json.Int v) -> string_of_int v
        | _ -> "?"
      in
      Printf.eprintf
        "adcopt call: protocol version mismatch — the request spoke version \
         %s, the daemon speaks %s; upgrade whichever is older\n"
        (pp (Json.member "version" request))
        (pp (Json.member "version" response))
    | _ -> ());
    exit 3
  | _ -> ()

let call_cmd =
  let doc =
    "Send one JSON request to a running $(b,adcopt serve) and print the \
     response (exit 3 when the daemon answers an error). A streaming \
     verb's incremental lines print as they arrive; $(b,--extract) \
     applies to the final line."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(const call $ serve_socket_arg $ connect_arg $ extract_arg
          $ connect_retries_arg $ request_json_arg)

(* ------------------------------------------------------------------ *)
(* route: the cluster front door *)

let backends_arg =
  let doc =
    "Comma-separated backend addresses, each a running $(b,adcopt serve): \
     a Unix socket path or $(b,host:port)."
  in
  Arg.(required
       & opt (some string) None
       & info [ "backends" ] ~docv:"A,B,..." ~doc)

let route_socket_arg =
  let doc = "Unix-domain front socket to listen on." in
  Arg.(value
       & opt string "/tmp/adcopt-route.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc)

let vnodes_arg =
  let doc =
    "Virtual nodes per backend on the consistent-hash ring: more points \
     flatten the keyspace split at the cost of a larger ring."
  in
  Arg.(value & opt int 160 & info [ "vnodes" ] ~docv:"N" ~doc)

let connect_timeout_arg =
  let doc = "Per-attempt backend connect budget in milliseconds." in
  Arg.(value & opt int 1000 & info [ "connect-timeout-ms" ] ~docv:"MS" ~doc)

let probe_period_arg =
  let doc =
    "Background health-probe cadence in seconds: each backend is pinged \
     and marked up/down on this period. 0 disables the prober (health \
     then tracks only request-level outcomes)."
  in
  Arg.(value & opt float 2.0 & info [ "probe-period" ] ~docv:"SECONDS" ~doc)

let route backends socket listen vnodes connect_timeout_ms probe_period
    metrics_addr log_level log_format node_id =
  let backends =
    String.split_on_char ',' backends
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if backends = [] then die "adcopt route: --backends names no backend";
  let node_id, log = node_log "route" socket node_id log_level log_format in
  let obs = Adc_obs.create ~metrics:true () in
  let cfg =
    {
      Router.backends;
      socket_path = Some socket;
      tcp = Option.map host_port_of_string listen;
      vnodes;
      connect_timeout_ms;
      probe_period_s = probe_period;
      metrics_addr = Option.map host_port_of_string metrics_addr;
      obs;
      log;
      node_id = Some node_id;
    }
  in
  let router =
    try Router.create cfg with
    | Invalid_argument msg -> die "adcopt route: %s" msg
    | Transport.Listen_failed e ->
      die "adcopt route: cannot listen (%s)" (Transport.error_message e)
  in
  let request_stop _ = Router.stop router in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Adc_obs.Log.info log
    ~fields:
      ([
         ("socket", Adc_obs.Sink.String socket);
         ("backends", Adc_obs.Sink.Int (List.length backends));
         ("vnodes", Adc_obs.Sink.Int vnodes);
       ]
      @ (match (cfg.Router.tcp, Router.tcp_port router) with
        | Some (h, _), Some p ->
          [ ("tcp", Adc_obs.Sink.String (Printf.sprintf "%s:%d" h p)) ]
        | _ -> [])
      @
      match (cfg.Router.metrics_addr, Router.metrics_port router) with
      | Some (h, _), Some p ->
        [ ("metrics", Adc_obs.Sink.String (Printf.sprintf "%s:%d" h p)) ]
      | _ -> [])
    "routing";
  Router.run router;
  Adc_obs.Log.info log "drained, bye";
  Adc_obs.close obs;
  exit 0

let route_cmd =
  let doc =
    "Front a fleet of $(b,adcopt serve) backends with one socket speaking \
     the same newline-JSON protocol (see docs/CLUSTER.md). Requests are \
     consistent-hashed onto the backend that caches their key; $(b,batch) \
     and $(b,pareto) fan out one $(b,optimize) per cell and reassemble \
     byte-identically; a \
     dead backend's keys re-route to its ring successors, which recompute \
     the same bytes."
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(const route $ backends_arg $ route_socket_arg $ listen_arg
          $ vnodes_arg $ connect_timeout_arg $ probe_period_arg
          $ metrics_addr_arg $ log_level_arg $ log_format_arg $ node_id_arg)

(* ------------------------------------------------------------------ *)
(* extract: reach into a JSON document on stdin *)

let extract path =
  let input = In_channel.input_all stdin in
  match Json.parse input with
  | exception Json.Parse_error msg -> die "adcopt extract: malformed JSON: %s" msg
  | parsed -> (
    match Json.member_path path parsed with
    | Some v -> print_endline (Json.to_string v)
    | None -> die "adcopt extract: no value at path %S" path)

let extract_path_arg =
  let doc =
    "Dotted path into the document: name segments descend into objects, \
     digit segments index arrays, e.g. $(b,optimize) or $(b,grid.0.fom)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)

let extract_cmd =
  let doc =
    "Read one JSON document from stdin and print the value at $(b,PATH) \
     as canonical JSON. Unlike jq, the output is the repo's own \
     canonical serialization — the very bytes the codec produced — so \
     extracted sub-payloads can be $(b,cmp)'d against other adcopt \
     output (CI diffs a pareto point's $(b,optimize) object against \
     $(b,adcopt optimize --json) this way)."
  in
  Cmd.v (Cmd.info "extract" ~doc) Term.(const extract $ extract_path_arg)

(* ------------------------------------------------------------------ *)
(* top level *)

let main_cmd =
  let doc = "designer-driven topology optimization for pipelined ADCs (DATE 2005)" in
  let info = Cmd.info "adcopt" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ enumerate_cmd; optimize_cmd; sweep_cmd; batch_cmd; pareto_cmd;
      synth_cmd; behavioral_cmd; corners_cmd; montecarlo_cmd; area_cmd;
      netlist_cmd; trace_cmd; serve_cmd; route_cmd; call_cmd; extract_cmd ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  exit (Cmd.eval main_cmd)
