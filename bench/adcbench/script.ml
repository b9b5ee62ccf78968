(* route-hybrid: a designer's scripted sweep, sent closed-loop (each
   request waits for the previous reply) through [adcopt route] to two
   [adcopt serve -j 1] backends. It is the only workload where batch and
   pareto fan-out, replication, donation and cross-request reuse of
   synthesized jobs meet real hybrid compute.

   The sweep is a fixed template: which request repeats which, which
   requests share rates (hence store entries and synthesized jobs), and
   the keys of the fanned-out requests, whose placement on the ring
   decides how the fan-out splits, are the same on every seed. The seed
   draws only the search seeds of the two synth requests: the budget,
   not the seed, fixes how many evaluations a synthesis makes, and a
   synth goes whole to one backend, so a sweep costs about the same on
   every seed. (A seed on a fanned-out request would move its cells
   over the ring: a pareto whose four cells land on one backend takes
   over twice as long as one split two and two.) All requests are
   hybrid with a reduced wire budget on 8- and 9-bit specs. *)

module Json = Adc_json.Json

let budget =
  Json.Obj
    [
      ("sa_iterations", Json.Int 15);
      ("pattern_evals", Json.Int 10);
      ("space_factor", Json.Float 0.9);
    ]

type request = { verb : string; fields : (string * Json.t) list; repeat_of : int option }

(* 12 requests; 3 exact repeats, and 3 optimize cells a pareto already
   computed. The comment on each line is what makes it cheap or dear. *)
let common = [ ("mode", Json.String "hybrid"); ("attempts", Json.Int 2); ("budget", budget) ]

let generate ~seed =
  let rng = Random.State.make [| seed; 0x4b1d |] in
  let a = 20.0 and b = 40.0 and c = 30.0 and d = 25.0 in
  let req verb params = { verb; fields = (("verb", Json.String verb) :: params) @ common; repeat_of = None } in
  let ks = ("ks", Json.List [ Json.Int 8; Json.Int 9 ]) in
  let optimize k fs = req "optimize" [ ("k", Json.Int k); ("fs_mhz", Json.Float fs) ] in
  let synth m bits fs =
    req "synth"
      [
        ("m", Json.Int m); ("bits", Json.Int bits); ("fs_mhz", Json.Float fs);
        ("seed", Json.Int (Random.State.int rng 1_000_000));
      ]
  in
  let pareto = req "pareto" [ ks; ("fs_list", Json.List [ Json.Float a; Json.Float b ]) ] in
  let first_synth = synth 3 9 35.0 in
  let second_synth = synth 2 8 35.0 in
  let cold = optimize 9 d in
  let again r i = { r with repeat_of = Some i } in
  [|
    pareto;  (* 4 cold cells, fanned out *)
    optimize 9 a;  (* a pareto cell: stored on its owner *)
    first_synth;  (* cold cell synthesis *)
    req "batch" [ ks; ("fs_mhz", Json.Float c) ];  (* cold, fanned out per owner *)
    optimize 8 c;  (* its jobs are the batch's: memo hit or donation *)
    again pareto 0;
    cold;
    second_synth;  (* cold *)
    optimize 8 d;  (* shares the m2@8b job with [cold] *)
    again first_synth 2;
    optimize 8 b;  (* a pareto cell *)
    again cold 6;
  |]

type outcome = {
  latency_ms : float;
  verb : string;
  result : string option;  (** payload bytes of the final line; [None] on error *)
}

(* Send the script over one connection, closed-loop. *)
let run ~path (script : request array) =
  let fd = Proc.connect path in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Array.mapi
        (fun id r ->
          let line = Json.to_string (Json.Obj (("id", Json.Int id) :: r.fields)) in
          let t0 = Proc.now_s () in
          Proc.write_all fd (line ^ "\n");
          let rec final () =
            let reply = input_line ic in
            if Reply.is_point reply then final () else reply
          in
          let reply = final () in
          let latency_ms = (Proc.now_s () -. t0) *. 1e3 in
          {
            latency_ms;
            verb = r.verb;
            result = (if Reply.is_ok reply then Reply.result reply else None);
          })
        script)

(* A request is wrong when it failed, or when it repeats an earlier one
   and its bytes differ from that first answer. *)
let wrong (script : request array) (outcomes : outcome array) =
  Array.to_list
    (Array.mapi
       (fun i o ->
         o.result = None
         ||
         match script.(i).repeat_of with
         | Some first -> outcomes.(first).result <> o.result
         | None -> false)
       outcomes)
  |> List.filter Fun.id |> List.length

let wall_ms outcomes = Array.fold_left (fun a o -> a +. o.latency_ms) 0.0 outcomes
