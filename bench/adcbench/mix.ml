(* The equation-mode traffic mix of serve-mix and route-mix: a seeded
   request stream, its offline oracle, and the two generators that send
   it over one connection: a closed loop with a fixed number of requests
   in flight (the end-to-end run) and an open loop on a rate schedule
   (the traced run's rate ladder).

   The mix exercises the transport, Protocol, Codec, the store (reads
   beside ~6% fresh keys that each write), process-card parsing and the
   equation core. No request reaches the hybrid evaluator, so an
   evaluator change must not move these workloads. *)

module Json = Adc_json.Json
module Codec = Adc_serve.Codec
module Spec = Adc_pipeline.Spec
module Optimize = Adc_pipeline.Optimize
module Clock = Adc_obs.Clock

let fs_grid = [| 10.0; 20.0; 40.0; 80.0 |]
let card_path = Filename.concat "share" (Filename.concat "processes" "c018.sp")

let load_card root = In_channel.with_open_text (Filename.concat root card_path) In_channel.input_all

type request = {
  verb : string;
  fields : (string * Json.t) list;  (** the request object minus [id] *)
  expect : string;  (** canonical bytes of the final line's [result] *)
}

(* ------------------------------------------------------------------ *)
(* the offline oracle: the same library calls the daemon makes, run
   before any timing starts *)

let spec_of ?process ~k ~fs () = Spec.make ?process ~k ~fs:(fs *. 1e6) ()

let optimize_payload ?process ~k ~fs () =
  Json.to_string
    (Codec.optimize_payload (Optimize.run ~mode:`Equation (spec_of ?process ~k ~fs ())))

let sweep_payload ~fs =
  Json.to_string
    (Codec.chart_payload ~truncated:false
       (Adc_pipeline.Rules.sweep ~mode:`Equation ~seed:11 ~k_values:[ 10; 11; 12; 13 ]
          (fun ~k -> spec_of ~k ~fs ())))

let pareto_payload ~ks ~fs_list =
  Json.to_string
    (Codec.pareto_payload
       (Adc_pipeline.Front.search ~mode:`Equation ~ks ~fs_mhz:fs_list ()))

(* ------------------------------------------------------------------ *)
(* the stream *)

type stream = { requests : request array }

let eq = ("mode", Json.String "equation")

(* Mix (share of requests): 54% optimize on the fs grid, 6% optimize at
   a fresh fs (a store write each), 10% optimize with the 0.18 um card
   text, 10% enumerate, 10% sweep 10..13, 5% pareto 4x2 (streamed), 5%
   stats. [n] requests, all drawn from [seed]. *)
let generate ~card ~seed ~n =
  let process =
    match Adc_spice.resolve_card (Some card) with
    | Ok p -> p
    | Error e -> failwith ("c018 card: " ^ Adc_spice.error_to_string e)
  in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let memo = Hashtbl.create 256 in
  let cached key f =
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add memo key v;
      v
  in
  let fresh = ref 0 in
  let k () = 8 + Random.State.int rng 7 in
  let fs () = fs_grid.(Random.State.int rng (Array.length fs_grid)) in
  let draw () =
    let u = Random.State.float rng 1.0 in
    if u < 0.60 then begin
      let k = k () in
      let fs =
        if Random.State.float rng 1.0 < 0.10 then begin
          (* disjoint intervals keep every fresh rate unique in the run *)
          incr fresh;
          5.0 +. (0.01 *. float_of_int !fresh) +. Random.State.float rng 0.01
        end
        else fs ()
      in
      {
        verb = "optimize";
        fields = [ ("verb", Json.String "optimize"); ("k", Json.Int k); ("fs_mhz", Json.Float fs); eq ];
        expect = cached (`Opt (k, fs, false)) (fun () -> optimize_payload ~k ~fs ());
      }
    end
    else if u < 0.70 then begin
      let k = k () and fs = fs () in
      {
        verb = "optimize";
        fields =
          [
            ("verb", Json.String "optimize"); ("k", Json.Int k); ("fs_mhz", Json.Float fs); eq;
            ("process", Json.String card);
          ];
        expect = cached (`Opt (k, fs, true)) (fun () -> optimize_payload ~process ~k ~fs ());
      }
    end
    else if u < 0.80 then begin
      let k = k () and fs = fs () in
      {
        verb = "enumerate";
        fields = [ ("verb", Json.String "enumerate"); ("k", Json.Int k); ("fs_mhz", Json.Float fs) ];
        expect =
          cached (`Enum (k, fs)) (fun () ->
              Json.to_string (Codec.enumerate_payload (spec_of ~k ~fs ())));
      }
    end
    else if u < 0.90 then begin
      let fs = fs () in
      {
        verb = "sweep";
        fields =
          [ ("verb", Json.String "sweep"); ("from", Json.Int 10); ("to", Json.Int 13); ("fs_mhz", Json.Float fs); eq ];
        expect = cached (`Sweep fs) (fun () -> sweep_payload ~fs);
      }
    end
    else if u < 0.95 then begin
      let k0 = 8 + Random.State.int rng 4 in
      let ks = [ k0; k0 + 1; k0 + 2; k0 + 3 ] in
      let i = Random.State.int rng (Array.length fs_grid) in
      let fs_list = [ fs_grid.(i); fs_grid.((i + 1) mod Array.length fs_grid) ] in
      {
        verb = "pareto";
        fields =
          [
            ("verb", Json.String "pareto");
            ("ks", Json.List (List.map (fun k -> Json.Int k) ks));
            ("fs_list", Json.List (List.map (fun f -> Json.Float f) fs_list));
            eq;
          ];
        expect = cached (`Pareto (k0, i)) (fun () -> pareto_payload ~ks ~fs_list);
      }
    end
    else { verb = "stats"; fields = [ ("verb", Json.String "stats") ]; expect = "" }
  in
  { requests = Array.init n (fun _ -> draw ()) }

let line ?req_id id (r : request) =
  let rid = match req_id with Some f -> [ ("req_id", Json.String (f id)) ] | None -> [] in
  Json.to_string (Json.Obj ((("id", Json.Int id) :: r.fields) @ rid))

(* A final reply is right when it is [ok] and, except for [stats] whose
   counters move, its payload bytes equal the oracle's. *)
let correct (r : request) reply =
  Reply.is_ok reply
  && (r.verb = "stats" || Reply.result reply = Some r.expect)

(* ------------------------------------------------------------------ *)
(* the open-loop generator *)

type step = { rate : float; dur_s : float }

type sample = {
  step : int;
  due : int64;
  mutable sent : int64;  (** 0 = never sent *)
  mutable finished : int64;  (** 0 = no final reply *)
  mutable right : bool;
  mutable overloaded : bool;
}

type step_result = {
  srate : float;
  sent_n : int;
  latencies_ms : float list;  (** from the due time, answered requests *)
  lateness_ms : float list;   (** generator send time minus due time *)
  bad : int;                  (** unanswered, errors and wrong answers *)
  wrong : int;                (** among [bad], replies other than an
                                  [overloaded] refusal: errors and wrong
                                  bytes, which no load excuses *)
  tail_ok : bool;             (** last-second completions >= 95% of sends *)
  aborted : bool;
}

let ns_of_s s = Int64.of_float (s *. 1e9)
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Send [stream] on the [steps] schedule over one connection to [path]:
   the calling thread sends, one receiver thread matches replies by id.
   Wire ids (and the stream position they send) start at [first], so
   successive calls on one daemon send fresh requests and distinct
   [req_id]s. A step whose lateness passes 1 s aborts the rest of the
   schedule. Returns one result per step that started, and the samples
   indexed by wire id minus [first]. *)
let run_open ?(traced = false) ?(first = 0) ~path ~(stream : stream) steps =
  let steps = Array.of_list steps in
  let t0 = Int64.add (Clock.now_ns ()) (ns_of_s 0.05) in
  let dues =
    List.concat
      (List.mapi
         (fun i st ->
           let start = Array.fold_left ( +. ) 0.0 (Array.sub (Array.map (fun s -> s.dur_s) steps) 0 i) in
           List.init (int_of_float (st.rate *. st.dur_s)) (fun j ->
               (i, Int64.add t0 (ns_of_s (start +. (float_of_int j /. st.rate))))))
         (Array.to_list steps))
  in
  let samples =
    Array.of_list
      (List.map
         (fun (step, due) -> { step; due; sent = 0L; finished = 0L; right = false; overloaded = false })
         dues)
  in
  let n = Array.length samples in
  let reqs = stream.requests in
  let req_of j = reqs.((first + j) mod Array.length reqs) in
  let req_id = if traced then Some (Printf.sprintf "q%d") else None in
  let lines = Array.init n (fun j -> line ?req_id (first + j) (req_of j)) in
  let fd = Proc.connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
  let ic = Unix.in_channel_of_descr fd in
  let sending = Atomic.make true in
  let answered = Atomic.make 0 in
  let sent_total = Atomic.make 0 in
  let drain_deadline = Atomic.make Int64.max_int in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop () =
          let finished_all =
            (not (Atomic.get sending)) && Atomic.get answered >= Atomic.get sent_total
          in
          if finished_all || Clock.now_ns () > Atomic.get drain_deadline then ()
          else
            match input_line ic with
            | reply ->
              (match Reply.id reply with
              | Some g when g >= first && g < first + n && not (Reply.is_point reply) ->
                let s = samples.(g - first) in
                if s.finished = 0L then begin
                  s.finished <- Clock.now_ns ();
                  s.right <- correct (req_of (g - first)) reply;
                  s.overloaded <- Reply.find_sub reply {|"error":"overloaded"|} <> None;
                  Atomic.incr answered
                end
              | _ -> ());
              loop ()
            | exception (Sys_blocked_io | Sys_error _) -> loop ()
            | exception End_of_file -> ()
        in
        loop ())
      ()
  in
  let buf = Buffer.create 65536 in
  let aborted_at = ref None in
  let i = ref 0 in
  (try
     while !i < n && !aborted_at = None do
       let now = Clock.now_ns () in
       let due = samples.(!i).due in
       if due > now then Unix.sleepf (Int64.to_float (Int64.sub due now) /. 1e9)
       else if Int64.sub now due > 1_000_000_000L then aborted_at := Some samples.(!i).step
       else begin
         (* everything already due goes out in one write, stamped before
            it, since a reply can arrive before the write returns *)
         Buffer.clear buf;
         let from = !i in
         while !i < n && samples.(!i).due <= now do
           Buffer.add_string buf lines.(!i);
           Buffer.add_char buf '\n';
           incr i
         done;
         for j = from to !i - 1 do
           samples.(j).sent <- now
         done;
         ignore (Atomic.fetch_and_add sent_total (!i - from));
         Proc.write_all fd (Buffer.contents buf)
       end
     done
   with Unix.Unix_error _ -> aborted_at := Some (if !i < n then samples.(!i).step else 0));
  Atomic.set drain_deadline (Int64.add (Clock.now_ns ()) (ns_of_s 10.0));
  Atomic.set sending false;
  Thread.join receiver;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let last_step = match !aborted_at with Some s -> s | None -> Array.length steps - 1 in
  let all = Array.to_list samples in
  let results =
    List.init (last_step + 1) (fun si ->
        let mine = List.filter (fun s -> s.step = si) all in
        let sent = List.filter (fun s -> s.sent <> 0L) mine in
        let answered = List.filter (fun s -> s.finished <> 0L) sent in
        let step_end = List.fold_left (fun acc s -> if s.due > acc then s.due else acc) 0L mine in
        let last_second t = t <> 0L && t > Int64.sub step_end 1_000_000_000L && t <= step_end in
        let sends_last = List.length (List.filter (fun s -> last_second s.sent) mine) in
        let done_last = List.length (List.filter (fun s -> last_second s.finished) all) in
        {
          srate = steps.(si).rate;
          sent_n = List.length sent;
          latencies_ms = List.map (fun s -> ms_of_ns (Int64.sub s.finished s.due)) answered;
          lateness_ms = List.map (fun s -> ms_of_ns (Int64.sub s.sent s.due)) sent;
          bad = List.length (List.filter (fun s -> not s.right) sent);
          wrong = List.length (List.filter (fun s -> s.finished <> 0L && not (s.right || s.overloaded)) sent);
          tail_ok = float_of_int done_last >= 0.95 *. float_of_int sends_last;
          aborted = !aborted_at = Some si || List.length sent < List.length mine;
        })
  in
  (results, samples)

(* ------------------------------------------------------------------ *)
(* the closed loop *)

(* Stream length of a closed-loop run; a run that outpaces it wraps,
   and the wrapped fresh-rate requests are then store reads. *)
let closed_stream_len = 200_000

type closed_result = {
  answered_ms : float list;  (** latency from send, one per final reply *)
  n_sent : int;  (** requests sent, answered or not *)
  wrong : int;  (** unanswered, errors and wrong answers *)
}

(* Keep [depth] requests of [stream] in flight over one connection to
   [path] for [dur_s]: each final reply sends the next request. One
   thread writes and reads; a request line is far smaller than the
   socket buffer, so the writes never wait on the replies. Wire ids (and
   the stream positions sent) start at [first]. A daemon that stays
   silent for 10 s ends the loop, and what it left unanswered is wrong. *)
let run_closed ?(first = 0) ~depth ~dur_s ~path (stream : stream) =
  let reqs = stream.requests in
  let fd = Proc.connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let ic = Unix.in_channel_of_descr fd in
  let inflight = Hashtbl.create (2 * depth) in
  let next = ref first and wrong = ref 0 and lat = ref [] in
  let send () =
    let id = !next in
    incr next;
    let r = reqs.(id mod Array.length reqs) in
    Hashtbl.replace inflight id (Clock.now_ns (), r);
    Proc.write_all fd (line id r ^ "\n")
  in
  let deadline = Int64.add (Clock.now_ns ()) (ns_of_s dur_s) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         for _ = 1 to depth do
           send ()
         done;
         while Hashtbl.length inflight > 0 do
           let reply = input_line ic in
           match Reply.id reply with
           | Some g when not (Reply.is_point reply) -> (
             match Hashtbl.find_opt inflight g with
             | Some (sent, r) ->
               let now = Clock.now_ns () in
               Hashtbl.remove inflight g;
               lat := ms_of_ns (Int64.sub now sent) :: !lat;
               if not (correct r reply) then incr wrong;
               if now < deadline then send ()
             | None -> ())
           | _ -> ()
         done
       with Sys_blocked_io | Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
      { answered_ms = !lat; n_sent = !next - first; wrong = !wrong + Hashtbl.length inflight })

(* The service-level objective a ladder step must meet. *)
let slo_p99_ms = 50.0
let slo_lateness_p99_ms = 5.0

let meets_slo r =
  (not r.aborted) && r.bad = 0 && r.tail_ok
  && Stats.percentile r.latencies_ms 0.99 <= slo_p99_ms
  && Stats.percentile r.lateness_ms 0.99 <= slo_lateness_p99_ms

(* 500 * sqrt 2 ^ i, rounded as the ladder is quoted *)
let ladder = [ 500.; 700.; 1000.; 1400.; 2000.; 2800.; 4000.; 5600. ]
