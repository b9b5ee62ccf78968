(* Per-layer replays for the traced run. They time calls into each
   layer's public functions from outside -- the library is not
   instrumented for them -- and record one bench-side span per call so
   the split can be browsed next to the library's own spans. *)

module Obs = Adc_obs
module Spec = Adc_pipeline.Spec
module Synthesizer = Adc_synth.Synthesizer
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Sparse = Adc_numerics.Sparse
module Json = Adc_json.Json
module Protocol = Adc_serve.Protocol
module Codec = Adc_serve.Codec

let time_call obs ?parent name f =
  let span = Obs.span obs ?parent ~name () in
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let dt = Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns ~since:t0) in
  Obs.Span.finish span;
  (r, dt)

(* ------------------------------------------------------------------ *)
(* the evaluator split *)

(* A seeded candidate set around the analytic first cut of one job:
   every width, the bias current and the compensation scaled by
   independent factors in [0.8, 1.25]. *)
let candidates ~rng ~n (z : Ota.sizing) =
  let f () = exp (Random.State.float rng (2.0 *. log 1.25) -. log 1.25) in
  List.init n (fun _ ->
      {
        z with
        Ota.w_pair = z.Ota.w_pair *. f ();
        w_mirror = z.Ota.w_mirror *. f ();
        w_tail = z.Ota.w_tail *. f ();
        w_cs = z.Ota.w_cs *. f ();
        w_sink = z.Ota.w_sink *. f ();
        i_bias = z.Ota.i_bias *. f ();
        c_comp = z.Ota.c_comp *. f ();
      })

type split = {
  eval_ms : float list;
  servo_ms : float list;
  dc_ms : float list;
  newton : float list;
  smallsig_us : float list;
  dpi_ms : float list;
  tf_ms : float list;
  char_ms : float list;
  refactor : int;
  solves : int;
  drift : int;
  evals : int;
}

let replay_job obs ~rng ~deadline (spec : Spec.t) job =
  let proc = spec.Spec.process in
  let req = Spec.stage_requirements spec job in
  let load_cap = req.Mdac_stage.c_load_eff in
  let z0 = Synthesizer.initial_sizing proc req in
  let acc =
    ref
      {
        eval_ms = []; servo_ms = []; dc_ms = []; newton = []; smallsig_us = [];
        dpi_ms = []; tf_ms = []; char_ms = []; refactor = 0; solves = 0; drift = 0;
        evals = 0;
      }
  in
  let rec go = function
    | [] -> ()
    | z :: rest when Proc.now_s () < deadline || !acc.evals < 5 ->
      let root = Obs.span obs ~name:"bench.candidate" () in
      let before = Sparse.totals () in
      let (metrics, _), eval_ms =
        time_call obs ~parent:root "bench.evaluate_sizing" (fun () ->
            Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z)
      in
      let after = Sparse.totals () in
      (match
         time_call obs ~parent:root "bench.ota.servo" (fun () ->
             Ota.biased_operating_point ~load_cap proc z)
       with
      | (Ok (p, op), servo_ms) when metrics <> [] ->
        let dc, dc_ms =
          time_call obs ~parent:root "bench.dc.solve" (fun () -> Adc_circuit.Dc.solve p.Ota.nl)
        in
        let ss, ss_ms =
          time_call obs ~parent:root "bench.smallsig.extract" (fun () ->
              Adc_circuit.Smallsig.extract p.Ota.nl op)
        in
        let dpi, dpi_ms =
          time_call obs ~parent:root "bench.dpi.build" (fun () -> Adc_sfg.Dpi.build p.Ota.nl ss)
        in
        let h, tf_ms =
          time_call obs ~parent:root "bench.dpi.numeric_tf" (fun () ->
              Adc_sfg.Dpi.numeric_transfer_to dpi p.Ota.out)
        in
        let _, char_ms =
          time_call obs ~parent:root "bench.analysis.characterize" (fun () ->
              Adc_sfg.Analysis.characterize h)
        in
        let a = !acc in
        acc :=
          {
            eval_ms = eval_ms :: a.eval_ms;
            servo_ms = servo_ms :: a.servo_ms;
            dc_ms = dc_ms :: a.dc_ms;
            newton =
              (match dc with
              | Ok r -> float_of_int r.Adc_circuit.Dc.iterations :: a.newton
              | Error _ -> a.newton);
            smallsig_us = (1e3 *. ss_ms) :: a.smallsig_us;
            dpi_ms = dpi_ms :: a.dpi_ms;
            tf_ms = tf_ms :: a.tf_ms;
            char_ms = char_ms :: a.char_ms;
            refactor =
              a.refactor + after.Sparse.total_refactorizations - before.Sparse.total_refactorizations;
            solves = a.solves + after.Sparse.total_solves - before.Sparse.total_solves;
            drift = a.drift + after.Sparse.total_pivot_drift - before.Sparse.total_pivot_drift;
            evals = a.evals + 1;
          }
      | _ -> ());
      Obs.Span.finish root;
      go rest
    | _ -> ()
  in
  go (candidates ~rng ~n:200 z0);
  !acc

(* The first job is a simple-topology cell, the second a cascode one
   (the 10-bit first stage, the costliest evaluator in the paper's
   runs). *)
let simple_job = { Spec.m = 2; input_bits = 8 }
let cascode_job = { Spec.m = 3; input_bits = 10 }

let evaluator ~obs ~seed ~seconds : (string * float) list =
  let rng = Random.State.make [| seed; 0xe7a1 |] in
  let spec = Spec.paper_case ~k:10 in
  let start = Proc.now_s () in
  let simple = replay_job obs ~rng ~deadline:(start +. (0.3 *. seconds)) spec simple_job in
  let cascode = replay_job obs ~rng ~deadline:(Proc.now_s () +. (0.7 *. seconds)) spec cascode_job in
  let med = Stats.median in
  let eval_c = med cascode.eval_ms in
  let parts =
    med cascode.servo_ms +. (med cascode.smallsig_us /. 1e3) +. med cascode.dpi_ms
    +. med cascode.tf_ms +. med cascode.char_ms
  in
  let per_eval n = float_of_int n /. float_of_int (Stdlib.max 1 cascode.evals) in
  [
    ("synth.eval_ms.simple", med simple.eval_ms);
    ("synth.eval_ms.cascode", eval_c);
    ("ota.servo_ms", med cascode.servo_ms);
    ("ota.servo_share", med cascode.servo_ms /. eval_c);
    ("dc.solve_ms", med cascode.dc_ms);
    ("dc.newton_iters", med cascode.newton);
    ("smallsig.extract_us", med cascode.smallsig_us);
    ("dpi.build_ms", med cascode.dpi_ms);
    ("dpi.numeric_tf_ms", med cascode.tf_ms);
    ("analysis.characterize_ms", med cascode.char_ms);
    ("eval.split_coverage", parts /. eval_c);
    ("sparse.refactorizations_per_eval", per_eval cascode.refactor);
    ("sparse.solves_per_eval", per_eval cascode.solves);
    ("sparse.pivot_drift", float_of_int cascode.drift);
    ("sparse.analyses_total", float_of_int (Adc_circuit.Mna.shared_analyses ()));
  ]

(* ------------------------------------------------------------------ *)
(* the offline replay of the serve-mix stream *)

let wire ~obs ~card ~seed ~seconds ~store_dir : (string * float) list =
  let stream = Mix.generate ~card ~seed ~n:2000 in
  let deadline = Proc.now_s () +. seconds in
  let store = Adc_serve.Store.open_dir store_dir in
  let decode = ref [] and encode = ref [] and opt = ref [] and sweep = ref []
  and pareto = ref [] and cards = ref [] and find = ref [] and add = ref [] in
  let push r v = r := v :: !r in
  let us ms = 1e3 *. ms in
  Array.iteri
    (fun id (r : Mix.request) ->
      if Proc.now_s () < deadline || id < 50 then begin
        let line = Mix.line id r in
        let parsed, ms = time_call obs "bench.protocol.decode" (fun () -> Protocol.parse_request_line line) in
        push decode (us ms);
        match parsed with
        | Error _ -> ()
        | Ok req -> (
          let fs = req.Protocol.fs_mhz in
          match r.Mix.verb with
          | "optimize" when req.Protocol.process = None ->
            let run, ms =
              time_call obs "bench.core.optimize_eq" (fun () ->
                  Adc_pipeline.Optimize.run ~mode:`Equation (Mix.spec_of ~k:req.Protocol.k ~fs ()))
            in
            push opt (us ms);
            let payload = Codec.optimize_payload run in
            let bytes, ms =
              time_call obs "bench.codec.encode" (fun () ->
                  Json.to_string
                    (Protocol.ok_response ~id:req.Protocol.id ~verb:req.Protocol.verb
                       ~cached:false payload))
            in
            push encode (us ms);
            ignore bytes;
            let key =
              Codec.key_optimize ~k:req.Protocol.k ~fs_mhz:fs ~mode:`Equation ~seed:11
                ~attempts:3 ()
            in
            let text = Json.to_string payload in
            let (), ms =
              time_call obs "bench.store.add" (fun () -> Adc_serve.Store.add store ~key ~payload:text)
            in
            push add (us ms);
            let _, ms = time_call obs "bench.store.find" (fun () -> Adc_serve.Store.find store ~key) in
            push find (us ms)
          | "optimize" ->
            let _, ms =
              time_call obs "bench.spice.card_parse" (fun () ->
                  Adc_spice.resolve_card req.Protocol.process)
            in
            push cards (us ms)
          | "sweep" ->
            let _, ms = time_call obs "bench.core.sweep_eq" (fun () -> Mix.sweep_payload ~fs) in
            push sweep (us ms)
          | "pareto" ->
            let _, ms =
              time_call obs "bench.core.pareto_eq" (fun () ->
                  Mix.pareto_payload ~ks:req.Protocol.ks ~fs_list:req.Protocol.fs_list)
            in
            push pareto ms
          | _ -> ())
      end)
    stream.Mix.requests;
  let med r = Stats.median !r in
  [
    ("protocol.decode_us", med decode);
    ("codec.encode_us", med encode);
    ("core.optimize_eq_us", med opt);
    ("core.sweep_eq_us", med sweep);
    ("core.pareto_eq_ms", med pareto);
    ("spice.card_parse_us", med cards);
    ("store.find_us", med find);
    ("store.add_us", med add);
  ]
