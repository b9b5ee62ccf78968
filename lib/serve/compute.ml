module Json = Adc_json.Json
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Rules = Adc_pipeline.Rules
module Front = Adc_pipeline.Front
module Montecarlo = Adc_pipeline.Montecarlo
module Deck = Adc_pipeline.Deck
module Cancel = Adc_exec.Cancel

type runtime = {
  shared : unit -> Optimize.shared;
  obs : Adc_obs.t;
  store : Store.t option;
}

type value =
  | Ping
  | Enumerate of Spec.t
  | Optimize of Optimize.run
  | Batch of Optimize.batch
  | Sweep of { runs : Optimize.run list; chart : Rules.chart }
  | Pareto of Front.front_result
  | Synth of {
      job : Spec.job;
      requirements : Adc_mdac.Mdac_stage.requirements;
      attempts : int;
      restarts : Optimize.restarts;
    }
  | Netlist_emit of Deck.export
  | Montecarlo of {
      spec : Spec.t;
      plan : Montecarlo.offset_plan;
      trials : int;
      sweep : (float * Montecarlo.report) list;
    }

type outcome =
  | Stored of Json.t
  | Computed of { value : value; payload : Json.t; truncated : bool }

type error = Protocol.error_kind * string

(* a typed answer raised from inside a computation *)
exception Failed of error

(* a request the client got wrong *)
let refuse msg = raise (Failed (Protocol.Bad_request, msg))

(* The validation every request passes before any work: its card (a
   malformed one is answered with the parser's line-numbered message;
   read only by a verb that names a spec) and the specs it names, each
   refused as the library refuses it. *)
let check (req : Protocol.request) =
  let process =
    lazy
      (match Adc_spice.resolve_card req.Protocol.process with
      | Ok p -> p
      | Error e -> refuse ("process card: " ^ Adc_spice.error_to_string e))
  in
  let spec ?(fs_mhz = req.Protocol.fs_mhz) k =
    let process = Lazy.force process in
    try Spec.make ~process ~k ~fs:(fs_mhz *. 1e6) ()
    with Invalid_argument msg -> refuse msg
  in
  let resolutions () =
    if req.Protocol.ks = [] then refuse "\"ks\" must name at least one resolution";
    req.Protocol.ks
  in
  let specs =
    match req.Protocol.verb with
    | Protocol.Enumerate | Protocol.Optimize -> [ spec req.Protocol.k ]
    | Protocol.Montecarlo ->
      if req.Protocol.trials < 1 then refuse "\"trials\" must be >= 1";
      [ spec req.Protocol.k ]
    | Protocol.Batch -> List.map (fun k -> spec k) (resolutions ())
    | Protocol.Sweep ->
      if req.Protocol.k_to < req.Protocol.k_from then
        refuse "\"to\" must be >= \"from\"";
      List.init
        (req.Protocol.k_to - req.Protocol.k_from + 1)
        (fun i -> spec (req.Protocol.k_from + i))
    | Protocol.Pareto ->
      let ks = resolutions () in
      if req.Protocol.fs_list = [] then
        refuse "\"fs_list\" must name at least one sampling rate";
      let _, _, cells =
        try Front.grid ~ks ~fs_mhz:req.Protocol.fs_list
        with Invalid_argument msg -> refuse msg
      in
      List.map (fun (k, fs_mhz) -> spec ~fs_mhz k) cells
    | Protocol.Synth | Protocol.Netlist_emit -> (
      (* one MDAC cell, sized under the 13-bit spec at the request's rate *)
      match Spec.make_job ~m:req.Protocol.m ~input_bits:req.Protocol.bits with
      | _ -> [ spec 13 ]
      | exception Invalid_argument msg -> refuse msg)
    | Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Dump_trace -> []
  in
  (process, specs)

(* the configuration parsed from the request, or the equation optimum *)
let offset_plan spec (req : Protocol.request) =
  match Montecarlo.offset_plan spec req.Protocol.config with
  | Ok plan -> plan
  | Error msg -> refuse msg

(* the work-unit spans a request emits: one per distinct job of each
   spec (a batch synthesizes a shared job once, so a progress bar over
   this total can finish early, never late), restart or trial *)
let work_units (req : Protocol.request) =
  match (req.Protocol.verb, check req) with
  | (Protocol.Synth | Protocol.Netlist_emit), _ -> Stdlib.max 1 req.Protocol.attempts
  | Protocol.Montecarlo, (_, [ spec ]) ->
    req.Protocol.trials * List.length (offset_plan spec req).Montecarlo.sigmas
  | _, (_, specs) ->
    List.fold_left
      (fun n (spec : Spec.t) ->
        n
        + List.length
            (Spec.distinct_jobs spec
               (Config.enumerate_leading ~k:spec.Spec.k
                  ~backend_bits:(Spec.backend_bits spec))))
      0 specs

let compute rt (req : Protocol.request) ~cancel ~emit =
  let obs = rt.obs in
  let mode = req.Protocol.mode and seed = req.Protocol.seed
  and attempts = req.Protocol.attempts and budget = req.Protocol.budget
  and m = req.Protocol.m and bits = req.Protocol.bits in
  (* equation mode has no synthesis phase: it never needs the pool, so a
     one-shot runtime spawns no domains for it *)
  let shared () = if mode = `Equation then None else Some (rt.shared ()) in
  let pool () = Optimize.shared_pool (rt.shared ()) in
  match (req.Protocol.verb, check req) with
  | Protocol.Ping, _ ->
    if req.Protocol.delay_ms > 0 then
      Thread.delay (float_of_int req.Protocol.delay_ms /. 1000.0);
    ( Ping,
      Json.Obj
        [
          ("pong", Json.Bool true);
          ("version", Json.Int Protocol.version);
          ("delay_ms", Json.Int req.Protocol.delay_ms);
        ],
      false )
  | Protocol.Enumerate, (_, [ spec ]) ->
    (Enumerate spec, Codec.enumerate_payload spec, false)
  | Protocol.Optimize, (_, [ spec ]) ->
    let run =
      Optimize.run ~mode ~seed ~attempts ?budget ~obs ~cancel ?shared:(shared ())
        spec
    in
    (Optimize run, Codec.optimize_payload run, run.Optimize.truncated)
  | Protocol.Batch, (_, specs) ->
    let b =
      Optimize.run_batch ~mode ~seed ~attempts ?budget ~obs ~cancel
        ?shared:(shared ()) specs
    in
    (Batch b, Codec.batch_payload b, b.Optimize.batch_truncated)
  | Protocol.Pareto, (process, _) ->
    (* front points stream out as soon as their membership is final
       (grid order makes it final at assembly; see Front) *)
    let fr =
      Front.search ~process:(Lazy.force process) ~mode ~seed ~attempts ?budget ~obs ~cancel
        ?shared:(shared ())
        ~on_point:(fun pt -> emit (Codec.pareto_point_payload pt))
        ~ks:req.Protocol.ks ~fs_mhz:req.Protocol.fs_list ()
    in
    (Pareto fr, Codec.pareto_payload fr, fr.Front.front_truncated)
  | Protocol.Sweep, (_, specs) ->
    (* one batch feeds both figures: Fig. 2 tabulates its runs, Fig. 3
       is the chart derived from them *)
    let runs =
      (Optimize.run_batch ~mode ~seed ~attempts ?budget ~obs ~cancel
         ?shared:(shared ()) specs)
        .Optimize.batch_runs
    in
    let chart = Rules.of_runs runs in
    let truncated = Cancel.cancelled cancel in
    (Sweep { runs; chart }, Codec.chart_payload ~truncated chart, truncated)
  | Protocol.Synth, (_, [ spec ]) ->
    (* best-of-N over the shared pool, one task per attempt; a tripped
       deadline skips the attempts not yet started *)
    let job = Spec.make_job ~m ~input_bits:bits in
    let attempts = Stdlib.max 1 attempts in
    let requirements = Spec.stage_requirements spec job in
    let r =
      Optimize.synth_restarts ~pool:(pool ()) ?budget ~obs ~cancel ~seed
        ~attempts spec.Spec.process requirements
    in
    ( Synth { job; requirements; attempts; restarts = r },
      Codec.synth_payload ~m ~bits ~fs_mhz:req.Protocol.fs_mhz ~seed ~attempts
        ~evaluations:r.Optimize.evaluations ~truncated:r.Optimize.truncated
        r.Optimize.best,
      r.Optimize.truncated )
  | Protocol.Netlist_emit, (_, [ spec ]) -> (
    (* the [synth] verb's best-of-N identity, rendered as a canonical
       SPICE deck *)
    match
      Deck.export ?budget ~obs ~cancel ~pool:(pool ()) ~m ~bits ~seed ~attempts
        spec
    with
    | Error msg ->
      (* no deck: every restart failed, or the deadline stopped them all *)
      let kind =
        if Cancel.cancelled cancel then Protocol.Deadline_exceeded
        else Protocol.Internal
      in
      raise (Failed (kind, "netlist-emit: " ^ msg))
    | Ok e ->
      (Netlist_emit e, Codec.netlist_payload ~deck:e.Deck.deck, e.Deck.truncated))
  | Protocol.Montecarlo, (_, [ spec ]) ->
    let plan = offset_plan spec req and trials = req.Protocol.trials in
    let sweep =
      Montecarlo.offset_sweep ~trials ~obs ~seed spec plan.Montecarlo.stage_config
        ~sigmas:plan.Montecarlo.sigmas
    in
    ( Montecarlo { spec; plan; trials; sweep },
      Codec.montecarlo_payload ~k:req.Protocol.k ~fs_mhz:req.Protocol.fs_mhz
        ~config:plan.Montecarlo.stage_config ~trials ~seed
        ~budget:plan.Montecarlo.budget sweep,
      false )
  | (Protocol.Stats | Protocol.Shutdown | Protocol.Dump_trace), _ ->
    (* Inline-only verbs: the daemon's reader answers these at admission
       and never enqueues them. Should one reach a worker anyway (an
       admission regression), answer with a typed internal error: an
       escaped exception would kill the worker thread, silently
       shrinking the pool until the daemon stalled. *)
    raise
      (Failed
         ( Protocol.Internal,
           Printf.sprintf "inline-only verb %S misdispatched to the worker queue"
             (Protocol.verb_name req.Protocol.verb) ))
  | verb, _ ->
    raise
      (Failed
         ( Protocol.Internal,
           Protocol.verb_name verb ^ ": validation named an unexpected spec list" ))

(* every exception becomes a typed answer *)
let typed f =
  match f () with
  | v -> Ok v
  | exception Failed e -> Error e
  | exception e -> Error (Protocol.Internal, Printexc.to_string e)

let validate req = typed (fun () -> work_units req)

let run rt (req : Protocol.request) ~cancel ~emit =
  let key = (Protocol.key_of_request req).Protocol.store in
  let find store = Option.bind key (fun key -> Store.find store ~key) in
  match Option.bind rt.store find with
  | Some text ->
    (* canonical serializer: parse-then-reserialize returns the very
       bytes that were stored, so a warm hit is byte-identical to the
       cold computation it replays; a streaming hit replays the point
       lines a cold run streamed *)
    let payload = Json.parse text in
    if req.Protocol.verb = Protocol.Pareto then
      List.iter emit (Codec.pareto_front_points payload);
    Ok (Stored payload)
  | None ->
    typed (fun () -> compute rt req ~cancel ~emit)
    |> Result.map (fun (value, payload, truncated) ->
           (match (rt.store, key) with
           | Some store, Some key when not truncated -> (
             (* the result is computed and about to be delivered; a failed
                cache write (disk full, dir removed) must not fail it *)
             try Store.add store ~key ~payload:(Json.to_string payload)
             with Sys_error _ | Unix.Unix_error _ -> ())
           | _ -> ());
           Computed { value; payload; truncated })
