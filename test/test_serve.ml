(* Tests for the synthesis service: wire protocol, the persistent design
   store's integrity contract, request deadlines/cancellation against the
   shared runtime, and an end-to-end daemon over a Unix socket (served
   results must be byte-identical to the one-shot computation, cold and
   store-warmed; overload must reject predictably; shutdown must drain). *)

module Json = Adc_json.Json
module Protocol = Adc_serve.Protocol
module Codec = Adc_serve.Codec
module Store = Adc_serve.Store
module Server = Adc_serve.Server
module Compute = Adc_serve.Compute
module Client = Adc_serve.Client
module Cancel = Adc_exec.Cancel
module Pool = Adc_exec.Pool
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Front = Adc_pipeline.Front
module Api = Adc_api
module Synthesizer = Adc_synth.Synthesizer

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let tiny_budget =
  { Synthesizer.sa_iterations = 12; pattern_evals = 20; space_factor = 0.6 }

(* ------------------------------------------------------------------ *)
(* protocol *)

let test_request_defaults () =
  match Protocol.parse_request_line {|{"verb":"optimize"}|} with
  | Error (_, e, _) -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    Alcotest.(check int) "k" 13 r.Protocol.k;
    Alcotest.(check (float 0.0)) "fs" 40.0 r.Protocol.fs_mhz;
    Alcotest.(check int) "seed" 11 r.Protocol.seed;
    Alcotest.(check int) "attempts" 3 r.Protocol.attempts;
    Alcotest.(check bool) "mode" true (r.Protocol.mode = `Equation);
    Alcotest.(check bool) "id defaults to null" true (r.Protocol.id = Json.Null);
    Alcotest.(check bool) "no deadline" true (r.Protocol.deadline_ms = None)

let test_request_fields () =
  match
    Protocol.parse_request_line
      {|{"id":7,"verb":"sweep","from":11,"to":12,"fs_mhz":25.5,"mode":"hybrid","seed":3,"deadline_ms":250}|}
  with
  | Error (_, e, _) -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "verb" true (r.Protocol.verb = Protocol.Sweep);
    Alcotest.(check int) "from" 11 r.Protocol.k_from;
    Alcotest.(check int) "to" 12 r.Protocol.k_to;
    Alcotest.(check (float 1e-9)) "fs" 25.5 r.Protocol.fs_mhz;
    Alcotest.(check bool) "mode" true (r.Protocol.mode = `Hybrid);
    Alcotest.(check bool) "deadline" true (r.Protocol.deadline_ms = Some 250);
    Alcotest.(check bool) "id echo" true (r.Protocol.id = Json.Int 7)

let test_request_rejects () =
  let bad s =
    match Protocol.parse_request_line s with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "malformed json" true (bad "{nope");
  Alcotest.(check bool) "not an object" true (bad "[1,2]");
  Alcotest.(check bool) "missing verb" true (bad {|{"k":12}|});
  (* job-put/job-get were the retired warm-start donation verbs,
     store-put/store-get the retired store replication verbs *)
  List.iter
    (fun verb ->
      Alcotest.(check bool) ("unknown verb " ^ verb) true
        (match
           Protocol.parse_request_line (Printf.sprintf {|{"verb":%S}|} verb)
         with
        | Error (Protocol.Bad_request, _, _) -> true
        | Error _ | Ok _ -> false))
    [ "frobnicate"; "job-put"; "job-get"; "store-put"; "store-get" ];
  Alcotest.(check bool) "bad field type" true
    (bad {|{"verb":"optimize","k":"thirteen"}|});
  Alcotest.(check bool) "bad mode" true
    (bad {|{"verb":"optimize","mode":"psychic"}|})

let test_request_version_gate () =
  (* the current version and the absent field are both accepted; any
     other version gets the typed unsupported_version error *)
  (match
     Protocol.parse_request_line
       (Printf.sprintf {|{"verb":"ping","version":%d}|} Protocol.version)
   with
  | Ok _ -> ()
  | Error (_, m, _) -> Alcotest.failf "current version refused: %s" m);
  (match Protocol.parse_request_line {|{"verb":"ping"}|} with
  | Ok _ -> ()
  | Error (_, m, _) -> Alcotest.failf "unversioned request refused: %s" m);
  match Protocol.parse_request_line {|{"verb":"ping","version":99}|} with
  | Error (Protocol.Unsupported_version, _, _) -> ()
  | Error (k, m, _) ->
    Alcotest.failf "wrong error kind %s: %s" (Protocol.error_name k) m
  | Ok _ -> Alcotest.fail "version 99 accepted"

let test_request_budget () =
  (match
     Protocol.parse_request_line
       {|{"verb":"optimize","budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}}|}
   with
  | Error (_, m, _) -> Alcotest.failf "parse failed: %s" m
  | Ok r ->
    Alcotest.(check bool) "budget decoded" true
      (r.Protocol.budget = Some tiny_budget));
  (match Protocol.parse_request_line {|{"verb":"optimize"}|} with
  | Ok r -> Alcotest.(check bool) "no budget" true (r.Protocol.budget = None)
  | Error (_, m, _) -> Alcotest.failf "parse failed: %s" m);
  (* a partial budget must fail loudly, never mix with defaults *)
  match
    Protocol.parse_request_line
      {|{"verb":"optimize","budget":{"sa_iterations":12}}|}
  with
  | Error (Protocol.Bad_request, _, _) -> ()
  | _ -> Alcotest.fail "partial budget accepted"

let test_member_path () =
  let j = Json.parse {|{"a":{"b":[{"c":3},{"c":4}]},"x":1}|} in
  let get p = Option.map Json.to_string (Json.member_path p j) in
  Alcotest.(check (option string)) "top-level" (Some "1") (get "x");
  Alcotest.(check (option string)) "nested + index" (Some "4") (get "a.b.1.c");
  Alcotest.(check (option string)) "array element" (Some {|{"c":3}|}) (get "a.b.0");
  Alcotest.(check (option string)) "missing field" None (get "a.z");
  Alcotest.(check (option string)) "index out of bounds" None (get "a.b.7.c")

let test_verb_names_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Protocol.verb_name v) true
        (Protocol.verb_of_name (Protocol.verb_name v) = Some v))
    [
      Protocol.Ping; Protocol.Stats; Protocol.Shutdown; Protocol.Enumerate;
      Protocol.Optimize; Protocol.Sweep; Protocol.Synth; Protocol.Montecarlo;
      Protocol.Batch; Protocol.Pareto;
    ]

(* a router reads a backend's typed error back through this inverse *)
let test_error_names_roundtrip () =
  List.iter
    (fun kind ->
      let name = Protocol.error_name kind in
      Alcotest.(check bool) name true
        (Protocol.error_kind_of_name name = kind))
    [
      Protocol.Bad_request; Protocol.Unsupported_version; Protocol.Overloaded;
      Protocol.Deadline_exceeded; Protocol.Shutting_down;
      Protocol.Backend_unavailable; Protocol.Internal;
    ];
  Alcotest.(check bool) "an unknown name reads as internal" true
    (Protocol.error_kind_of_name "frobnicated" = Protocol.Internal)

let test_parse_int_grid () =
  let ok s =
    match Api.parse_int_grid s with
    | Ok l -> l
    | Error e -> Alcotest.failf "%S refused: %s" s e
  in
  Alcotest.(check (list int)) "plain list" [ 10; 11 ] (ok "10,11");
  Alcotest.(check (list int)) "ascending range" [ 10; 11; 12; 13 ] (ok "10..13");
  Alcotest.(check (list int)) "descending range" [ 13; 12; 11; 10 ] (ok "13..10");
  Alcotest.(check (list int)) "mixed, written order kept" [ 10; 11; 13 ]
    (ok "10..11,13");
  Alcotest.(check (list int)) "whitespace tolerated" [ 10; 12 ] (ok " 10 , 12 ");
  let bad s = match Api.parse_int_grid s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty string" true (bad "");
  Alcotest.(check bool) "letters" true (bad "ten");
  Alcotest.(check bool) "dangling range" true (bad "10..");
  Alcotest.(check bool) "double range" true (bad "10..12..14")

let test_streaming_envelope () =
  let point =
    Protocol.stream_point_response ~id:(Json.Int 8) ~verb:Protocol.Pareto
      (Json.Obj [ ("k", Json.Int 12) ])
  in
  Alcotest.(check string) "point line"
    (Printf.sprintf
       {|{"id":8,"ok":true,"version":%d,"verb":"pareto","stream":"point","result":{"k":12}}|}
       Protocol.version)
    (Json.to_string point);
  let last =
    Protocol.stream_end_response ~id:(Json.Int 8) ~verb:Protocol.Pareto
      ~cached:false
      (Json.Obj [ ("done", Json.Bool true) ])
  in
  Alcotest.(check string) "end line"
    (Printf.sprintf
       {|{"id":8,"ok":true,"version":%d,"verb":"pareto","stream":"end","cached":false,"result":{"done":true}}|}
       Protocol.version)
    (Json.to_string last);
  Alcotest.(check bool) "point is not final" false
    (Protocol.response_is_final point);
  Alcotest.(check bool) "end is final" true (Protocol.response_is_final last);
  Alcotest.(check bool) "single-line ok is final" true
    (Protocol.response_is_final
       (Protocol.ok_response ~id:Json.Null ~verb:Protocol.Ping ~cached:false
          (Json.Obj [ ("pong", Json.Bool true) ])));
  Alcotest.(check bool) "errors are final" true
    (Protocol.response_is_final
       (Protocol.error_response ~id:Json.Null ~kind:Protocol.Internal
          ~message:"x" ()))

let test_response_shapes () =
  let ok =
    Protocol.ok_response ~id:(Json.Int 3) ~verb:Protocol.Ping ~cached:false
      (Json.Obj [ ("pong", Json.Bool true) ])
  in
  Alcotest.(check string) "ok line"
    (Printf.sprintf
       {|{"id":3,"ok":true,"version":%d,"verb":"ping","cached":false,"result":{"pong":true}}|}
       Protocol.version)
    (Json.to_string ok);
  let err =
    Protocol.error_response ~id:Json.Null ~kind:Protocol.Overloaded
      ~message:"queue full" ()
  in
  Alcotest.(check string) "error line"
    (Printf.sprintf
       {|{"id":null,"ok":false,"version":%d,"error":"overloaded","message":"queue full"}|}
       Protocol.version)
    (Json.to_string err)

(* ------------------------------------------------------------------ *)
(* store *)

let test_store_roundtrip_restart () =
  let dir = tmp_dir "adcopt-store" in
  let key = Codec.key_optimize ~k:12 ~fs_mhz:40.0 ~mode:`Equation ~seed:11 ~attempts:3 () in
  let payload = {|{"k":12,"optimum":"4-3-2","p_total":0.00123}|} in
  let s = Store.open_dir dir in
  Alcotest.(check bool) "miss before add" true (Store.find s ~key = None);
  Store.add s ~key ~payload;
  Alcotest.(check bool) "hit after add" true (Store.find s ~key = Some payload);
  (* a killed-and-restarted daemon reopens the same directory *)
  let s2 = Store.open_dir dir in
  Alcotest.(check bool) "bit-identical across restart" true
    (Store.find s2 ~key = Some payload);
  Alcotest.(check int) "restart hit counted" 1 (Store.hits s2);
  Alcotest.(check int) "no rejects" 0 (Store.rejected s2)

let test_store_distinct_keys () =
  let k1 = Codec.key_optimize ~k:12 ~fs_mhz:40.0 ~mode:`Equation ~seed:11 ~attempts:3 () in
  let k2 = Codec.key_optimize ~k:12 ~fs_mhz:40.0 ~mode:`Hybrid ~seed:11 ~attempts:3 () in
  let k3 = Codec.key_optimize ~k:12 ~fs_mhz:40.0 ~mode:`Equation ~seed:12 ~attempts:3 () in
  let k4 = Codec.key_sweep ~k_from:10 ~k_to:13 ~fs_mhz:40.0 ~mode:`Equation ~seed:11 ~attempts:3 () in
  let k5 =
    Codec.key_optimize ~budget:tiny_budget ~k:12 ~fs_mhz:40.0 ~mode:`Equation
      ~seed:11 ~attempts:3 ()
  in
  let k6 = Codec.key_batch ~ks:[ 10; 12 ] ~fs_mhz:40.0 ~mode:`Equation ~seed:11 ~attempts:3 () in
  let k7 =
    Codec.key_pareto ~ks:[ 10; 12 ] ~fs_list:[ 40.0 ] ~mode:`Equation ~seed:11
      ~attempts:3 ()
  in
  let k8 =
    Codec.key_pareto ~ks:[ 10; 12 ] ~fs_list:[ 40.0; 20.0 ] ~mode:`Equation
      ~seed:11 ~attempts:3 ()
  in
  let keys = [ k1; k2; k3; k4; k5; k6; k7; k8 ] in
  Alcotest.(check int) "all distinct" 8
    (List.length (List.sort_uniq compare keys));
  let dir = tmp_dir "adcopt-store" in
  let s = Store.open_dir dir in
  List.iteri (fun i k -> Store.add s ~key:k ~payload:(string_of_int i)) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) (Printf.sprintf "key %d isolated" i) true
        (Store.find s ~key:k = Some (string_of_int i)))
    keys

let test_store_rejects_wrong_key () =
  (* an entry whose header names a different key (the collision case)
     must read as a miss, never as the other key's payload *)
  let dir = tmp_dir "adcopt-store" in
  let s = Store.open_dir dir in
  let key_a = "adcopt/1|optimize|a" and key_b = "adcopt/1|optimize|b" in
  Store.add s ~key:key_a ~payload:"payload-for-a";
  let contents =
    let ic = open_in_bin (Store.path_of s ~key:key_a) in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    c
  in
  let oc = open_out_bin (Store.path_of s ~key:key_b) in
  output_string oc contents;
  close_out oc;
  Alcotest.(check bool) "foreign header is a miss" true
    (Store.find s ~key:key_b = None);
  Alcotest.(check int) "counted as rejected" 1 (Store.rejected s)

let prop_store_roundtrip =
  QCheck.Test.make ~count:100 ~name:"store round-trips arbitrary payloads"
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun payload ->
      let dir = tmp_dir "adcopt-store-q" in
      let s = Store.open_dir dir in
      let key = "adcopt/1|test|" ^ string_of_int (Hashtbl.hash payload) in
      Store.add s ~key ~payload;
      let back = Store.find s ~key in
      Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
      Unix.rmdir dir;
      back = Some payload)

let prop_store_rejects_corruption =
  (* flip any single byte of the stored file: find must answer None (or,
     for a flip inside the payload that MD5 still... it cannot — the
     digest pins every payload byte; header flips break the JSON or the
     key/length/digest match) *)
  QCheck.Test.make ~count:100 ~name:"store rejects any 1-byte corruption"
    QCheck.(pair (string_of_size (Gen.int_range 1 120)) (int_bound 1000))
    (fun (payload, pos_seed) ->
      let dir = tmp_dir "adcopt-store-q" in
      let s = Store.open_dir dir in
      let key = "adcopt/1|test|corrupt" in
      Store.add s ~key ~payload;
      let path = Store.path_of s ~key in
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let pos = pos_seed mod String.length contents in
      let corrupted = Bytes.of_string contents in
      Bytes.set corrupted pos (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0x20));
      let oc = open_out_bin path in
      output_bytes oc corrupted;
      close_out oc;
      let back = Store.find s ~key in
      Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
      Unix.rmdir dir;
      (* flipping a byte may leave a semantically identical file only if
         it produced the same string back *)
      back = None || back = Some payload)

let prop_store_rejects_truncation =
  QCheck.Test.make ~count:100 ~name:"store rejects truncated entries"
    QCheck.(pair (string_of_size (Gen.int_range 1 120)) (int_bound 1000))
    (fun (payload, cut_seed) ->
      let dir = tmp_dir "adcopt-store-q" in
      let s = Store.open_dir dir in
      let key = "adcopt/1|test|trunc" in
      Store.add s ~key ~payload;
      let path = Store.path_of s ~key in
      let ic = open_in_bin path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let keep = cut_seed mod String.length contents in
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 keep);
      close_out oc;
      let back = Store.find s ~key in
      Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
      Unix.rmdir dir;
      (* cutting exactly the trailing newline leaves the entry intact:
         validate tolerates a payload line without one by design *)
      if keep = String.length contents - 1 then back = Some payload
      else back = None)

(* ------------------------------------------------------------------ *)
(* deadlines and the shared runtime *)

let spec10 = Spec.make ~k:10 ~fs:40e6 ()

let fingerprint (r : Optimize.run) =
  ( Config.to_string (Optimize.optimum_config r),
    List.map
      (fun (c : Optimize.config_result) ->
        (Config.to_string c.Optimize.config, c.Optimize.p_total))
      r.Optimize.candidates,
    r.Optimize.synthesis_evaluations )

let test_cancelled_run_truncates () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let r =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~cancel
      spec10
  in
  Alcotest.(check bool) "truncated" true r.Optimize.truncated;
  Alcotest.(check int) "no evaluator calls" 0 r.Optimize.synthesis_evaluations

let test_shared_runtime_survives_cancellation () =
  (* a deadline-cut request must not poison the long-lived runtime: the
     truncated outcomes are evicted, the pool stays usable, and the next
     identical request computes the full bit-identical result *)
  let shared = Optimize.create_shared ~jobs:2 () in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let truncated =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~cancel
      ~shared spec10
  in
  Alcotest.(check bool) "first run truncated" true truncated.Optimize.truncated;
  let clean =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~shared
      spec10
  in
  let reference =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~jobs:1
      spec10
  in
  Alcotest.(check bool) "clean run complete" false clean.Optimize.truncated;
  Alcotest.(check bool) "bit-identical to a fresh runtime" true
    (fingerprint clean = fingerprint reference);
  (* replay: now every job is cached, so a repeat costs no evaluations
     but reports the same totals (cache-transparent counters) *)
  let replay =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~shared
      spec10
  in
  Alcotest.(check bool) "replay bit-identical" true
    (fingerprint replay = fingerprint reference);
  Optimize.shutdown_shared shared

let test_cross_request_job_reuse () =
  (* the tentpole contract: two different specs share derived MDAC jobs
     (k=10 and k=12 both need the {m=3, 10-bit} block, and the Job_key
     sees the physics, not the enclosing run), so the second request on
     a shared runtime hits those jobs in the cache — and must still be
     byte-for-byte identical to its own cold one-shot run *)
  let spec12 = Spec.make ~k:12 ~fs:40e6 () in
  let shared = Optimize.create_shared ~jobs:2 () in
  let run_shared spec =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~shared
      spec
  in
  let _first = run_shared spec10 in
  let hits_before, misses_before = Optimize.shared_job_stats shared in
  let second = run_shared spec12 in
  let hits_after, misses_after = Optimize.shared_job_stats shared in
  Alcotest.(check bool) "job-level hits across requests" true
    (hits_after > hits_before);
  Alcotest.(check bool) "but not everything was shared" true
    (misses_after > misses_before);
  let cold =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget ~jobs:1
      spec12
  in
  Alcotest.(check string) "warm-hit request == cold run, byte for byte"
    (Json.to_string (Codec.optimize_payload cold))
    (Json.to_string (Codec.optimize_payload second));
  Optimize.shutdown_shared shared

let test_batch_equals_sequential () =
  (* a hybrid batch fuses the specs' work lists but each per-spec run
     must equal the sequential one, and the fusion must actually save
     syntheses (the k=10..13 lists overlap) *)
  let ks = [ 10; 11; 12; 13 ] in
  let specs = List.map (fun k -> Spec.make ~k ~fs:40e6 ()) ks in
  let b =
    Optimize.run_batch ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
      ~jobs:2 specs
  in
  Alcotest.(check int) "one run per spec" (List.length specs)
    (List.length b.Optimize.batch_runs);
  Alcotest.(check bool) "fusion saved syntheses" true
    (b.Optimize.distinct_syntheses < b.Optimize.job_occurrences);
  List.iter2
    (fun spec run ->
      let sequential =
        Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
          ~jobs:1 spec
      in
      Alcotest.(check string)
        (Printf.sprintf "k=%d batch == sequential, byte for byte"
           spec.Spec.k)
        (Json.to_string (Codec.optimize_payload sequential))
        (Json.to_string (Codec.optimize_payload run)))
    specs b.Optimize.batch_runs

let test_front_grid_equals_solo () =
  (* the pareto acceptance contract: every grid cell's run must be
     byte-identical to a solo run at the same (k, fs) whatever the jobs
     count, and the fused batch must actually share MDAC jobs between
     cells (that sharing is the reason the grid is one batch) *)
  let solos =
    List.map
      (fun k ->
        ( k,
          Json.to_string
            (Codec.optimize_payload
               (Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1
                  ~budget:tiny_budget ~jobs:1 (Spec.make ~k ~fs:40e6 ()))) ))
      [ 10; 11; 12; 13 ]
  in
  List.iter
    (fun jobs ->
      let fr =
        Front.search ~mode:`Hybrid ~seed:7 ~attempts:1 ~budget:tiny_budget
          ~jobs ~ks:[ 10; 11; 12; 13 ] ~fs_mhz:[ 40.0 ] ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "grid fused shared jobs (jobs=%d)" jobs)
        true
        (fr.Front.distinct_syntheses < fr.Front.job_occurrences);
      List.iter
        (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "k=%d cell == solo, byte for byte (jobs=%d)"
               p.Front.pt_k jobs)
            (List.assoc p.Front.pt_k solos)
            (Json.to_string (Codec.optimize_payload p.Front.pt_run)))
        fr.Front.points)
    [ 1; 2 ]

let test_deadline_leaves_pool_reusable () =
  (* expire mid-run: whatever was cut must still settle every future
     (run returns), and the pool must execute later work normally *)
  let shared = Optimize.create_shared ~jobs:2 () in
  let cancel = Cancel.with_deadline ~after_s:0.005 () in
  let r =
    Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:4 ~budget:tiny_budget ~cancel
      ~shared spec10
  in
  ignore r.Optimize.truncated;
  let pool = Optimize.shared_pool shared in
  let doubled =
    List.map (fun x -> Pool.submit pool (fun () -> 2 * x)) [ 1; 2; 3 ]
    |> List.map Adc_exec.Future.await
  in
  Alcotest.(check (list int)) "pool reusable after expiry" [ 2; 4; 6 ] doubled;
  Optimize.shutdown_shared shared

(* ------------------------------------------------------------------ *)
(* end-to-end daemon *)

let with_server ?(queue_depth = 8) ?(workers = 2) ?store_dir
    ?(cfg = fun c -> c) f =
  let dir = tmp_dir "adcopt-serve" in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    cfg
      {
        Server.default_config with
        Server.socket_path = Some socket;
        queue_depth;
        workers;
        store_dir;
      }
  in
  let srv = Server.create cfg in
  let thread = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join thread)
    (fun () -> f srv socket)

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string json)

let test_server_ping_and_stats () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp = Client.request c (Json.parse {|{"id":41,"verb":"ping"}|}) in
      Alcotest.(check bool) "id echoed" true (member_exn "id" resp = Json.Int 41);
      Alcotest.(check bool) "ok" true (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool) "envelope carries the protocol version" true
        (member_exn "version" resp = Json.Int Protocol.version);
      Alcotest.(check bool) "ping payload names the version too" true
        (member_exn "version" (member_exn "result" resp)
        = Json.Int Protocol.version);
      let stats = Client.request c (Json.parse {|{"verb":"stats"}|}) in
      let result = member_exn "result" stats in
      Alcotest.(check bool) "requests counted" true
        (match member_exn "requests" result with
        | Json.Int n -> n >= 1
        | _ -> false);
      Alcotest.(check bool) "job-level cache counters exposed" true
        (member_exn "job_hits" result = Json.Int 0
        && member_exn "job_misses" result = Json.Int 0);
      Client.close c)

let test_server_version_mismatch () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp =
        Client.request c (Json.parse {|{"id":2,"verb":"ping","version":99}|})
      in
      Alcotest.(check bool) "refused" true
        (member_exn "ok" resp = Json.Bool false);
      Alcotest.(check bool) "typed unsupported_version error" true
        (member_exn "error" resp = Json.String "unsupported_version");
      Alcotest.(check bool) "id still echoed" true
        (member_exn "id" resp = Json.Int 2);
      Alcotest.(check bool) "daemon advertises what it speaks" true
        (member_exn "version" resp = Json.Int Protocol.version);
      let ok =
        Client.request c
          (Json.parse
             (Printf.sprintf {|{"verb":"ping","version":%d}|} Protocol.version))
      in
      Alcotest.(check bool) "current version accepted" true
        (member_exn "ok" ok = Json.Bool true);
      Client.close c)

let test_server_batch_equation () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp =
        Client.request c
          (Json.parse {|{"id":9,"verb":"batch","ks":[10,11,12]}|})
      in
      Alcotest.(check bool) "ok" true (member_exn "ok" resp = Json.Bool true);
      let result = member_exn "result" resp in
      let runs =
        match member_exn "runs" result with
        | Json.List l -> l
        | _ -> Alcotest.fail "runs is not a list"
      in
      Alcotest.(check int) "one run per requested resolution" 3
        (List.length runs);
      (* equation mode has no synthesis to fuse *)
      Alcotest.(check bool) "counters zero in equation mode" true
        (member_exn "job_occurrences" result = Json.Int 0
        && member_exn "distinct_syntheses" result = Json.Int 0);
      List.iteri
        (fun i k ->
          let direct =
            Json.to_string
              (Codec.optimize_payload
                 (Optimize.run ~mode:`Equation ~seed:11 ~attempts:3
                    (Spec.make ~k ~fs:40e6 ())))
          in
          Alcotest.(check string)
            (Printf.sprintf "runs[%d] == one-shot k=%d, byte for byte" i k)
            direct
            (Json.to_string (List.nth runs i)))
        [ 10; 11; 12 ];
      Client.close c)

let test_server_cross_request_job_hits () =
  (* two daemon requests whose derived work lists overlap: the second
     must register job-level cache hits in stats while answering the
     same bytes a cold daemon would *)
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let req k =
        Json.parse
          (Printf.sprintf
             {|{"id":%d,"verb":"optimize","k":%d,"mode":"hybrid","seed":7,"attempts":1,"budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}}|}
             k k)
      in
      let job_hits () =
        let s = Client.request c (Json.parse {|{"verb":"stats"}|}) in
        match member_exn "job_hits" (member_exn "result" s) with
        | Json.Int n -> n
        | _ -> Alcotest.fail "job_hits not an int"
      in
      let r10 = Client.request c (req 10) in
      Alcotest.(check bool) "k=10 ok" true (member_exn "ok" r10 = Json.Bool true);
      let before = job_hits () in
      let r12 = Client.request c (req 12) in
      Alcotest.(check bool) "k=12 ok" true (member_exn "ok" r12 = Json.Bool true);
      Alcotest.(check bool) "job-level hits across requests" true
        (job_hits () > before);
      let direct =
        Json.to_string
          (Codec.optimize_payload
             (Optimize.run ~mode:`Hybrid ~seed:7 ~attempts:1
                ~budget:tiny_budget ~jobs:1
                (Spec.make ~k:12 ~fs:40e6 ())))
      in
      Alcotest.(check string) "warm-hit response == cold one-shot (bytes)"
        direct
        (Json.to_string (member_exn "result" r12));
      Client.close c)

let test_server_optimize_byte_identical () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp =
        Client.request c (Json.parse {|{"id":1,"verb":"optimize","k":10}|})
      in
      Alcotest.(check bool) "ok" true (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool) "cold" true
        (member_exn "cached" resp = Json.Bool false);
      let served = Json.to_string (member_exn "result" resp) in
      let direct =
        Json.to_string
          (Codec.optimize_payload
             (Optimize.run ~mode:`Equation ~seed:11 ~attempts:3
                (Spec.make ~k:10 ~fs:40e6 ())))
      in
      Alcotest.(check string) "served == one-shot, byte for byte" direct served;
      Client.close c)

(* regression: the served sweep dropped [attempts] (its store key keeps
   it), so a hybrid sweep at attempts 1 answered the attempts-3 optima *)
let test_server_sweep_honours_attempts () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp =
        Client.request c
          (Json.parse
             {|{"verb":"sweep","from":8,"to":9,"mode":"hybrid","attempts":1,"budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}}|})
      in
      Alcotest.(check bool) "ok" true (member_exn "ok" resp = Json.Bool true);
      let rows =
        match Json.member_path "result.rows" resp with
        | Some (Json.List rows) -> rows
        | _ -> Alcotest.fail "sweep result has no rows"
      in
      let solo k =
        let r =
          Optimize.run ~mode:`Hybrid ~seed:11 ~attempts:1 ~budget:tiny_budget
            (Spec.make ~k ~fs:40e6 ())
        in
        ( Json.String (Config.to_string (Optimize.optimum_config r)),
          Json.Float r.Optimize.optimum.Optimize.p_total )
      in
      Alcotest.(check int) "one row per resolution" 2 (List.length rows);
      List.iter
        (fun row ->
          let k =
            match member_exn "k" row with
            | Json.Int k -> k
            | _ -> Alcotest.fail "row k is not an int"
          in
          let config, p_total = solo k in
          Alcotest.(check string)
            (Printf.sprintf "k=%d config == solo optimize at attempts 1" k)
            (Json.to_string config)
            (Json.to_string (member_exn "config" row));
          Alcotest.(check string)
            (Printf.sprintf "k=%d p_total == solo optimize at attempts 1" k)
            (Json.to_string p_total)
            (Json.to_string (member_exn "p_total" row)))
        rows;
      Client.close c)

let test_server_backpressure () =
  (* one worker, queue bound 1: occupy the worker, fill the queue slot,
     then two more must be refused as overloaded — deterministically *)
  with_server ~workers:1 ~queue_depth:1 (fun srv socket ->
      let c = Client.connect_unix socket in
      Client.send c (Json.parse {|{"id":1,"verb":"ping","delay_ms":600}|});
      Thread.delay 0.25;
      (* worker is busy with id 1; these three race only with each other:
         one is admitted, two bounce off the full queue immediately *)
      Client.send c (Json.parse {|{"id":2,"verb":"ping","delay_ms":10}|});
      Client.send c (Json.parse {|{"id":3,"verb":"ping","delay_ms":10}|});
      Client.send c (Json.parse {|{"id":4,"verb":"ping","delay_ms":10}|});
      let responses = List.init 4 (fun _ -> Client.recv c) in
      let by_id n =
        List.find
          (fun r -> member_exn "id" r = Json.Int n)
          responses
      in
      Alcotest.(check bool) "id 1 served" true
        (member_exn "ok" (by_id 1) = Json.Bool true);
      let rejected =
        List.filter
          (fun r ->
            member_exn "ok" r = Json.Bool false
            && member_exn "error" r = Json.String "overloaded")
          responses
      in
      Alcotest.(check int) "exactly two overloaded" 2 (List.length rejected);
      Alcotest.(check int) "server counter agrees" 2 (Server.overloaded srv);
      Client.close c)

(* regression: a ping queued behind the only worker, so a busy backend
   missed the router's 1000 ms probe timeout and was marked down *)
let test_server_ping_answers_while_busy () =
  with_server ~workers:1 (fun _srv socket ->
      let busy = Client.connect_unix socket in
      Client.send busy (Json.parse {|{"id":1,"verb":"ping","delay_ms":700}|});
      Thread.delay 0.1;
      let c = Client.connect_unix socket in
      let t0 = Unix.gettimeofday () in
      let resp = Client.request c (Json.parse {|{"id":2,"verb":"ping"}|}) in
      let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      Alcotest.(check bool) "plain ping ok" true
        (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool)
        (Printf.sprintf "answered within 200 ms of a busy worker (%.0f ms)" ms)
        true (ms < 200.0);
      Alcotest.(check bool) "the delayed ping still completes" true
        (member_exn "ok" (Client.recv busy) = Json.Bool true);
      Client.close c;
      Client.close busy)

let test_server_deadline_exceeded () =
  (* the worker is busy and the queued request's budget expires before
     it is picked up: answered deadline_exceeded, never computed *)
  with_server ~workers:1 ~queue_depth:4 (fun srv socket ->
      let c = Client.connect_unix socket in
      Client.send c (Json.parse {|{"id":1,"verb":"ping","delay_ms":500}|});
      Thread.delay 0.2;
      Client.send c
        (Json.parse {|{"id":2,"verb":"optimize","k":10,"deadline_ms":20}|});
      let responses = List.init 2 (fun _ -> Client.recv c) in
      let r2 =
        List.find (fun r -> member_exn "id" r = Json.Int 2) responses
      in
      Alcotest.(check bool) "rejected" true (member_exn "ok" r2 = Json.Bool false);
      Alcotest.(check bool) "deadline_exceeded" true
        (member_exn "error" r2 = Json.String "deadline_exceeded");
      Alcotest.(check int) "counted" 1 (Server.deadline_exceeded srv);
      Client.close c)

let test_server_store_warm_restart () =
  let dir = tmp_dir "adcopt-serve-store" in
  let request = {|{"id":1,"verb":"optimize","k":10,"seed":5}|} in
  let cold =
    with_server ~store_dir:dir (fun _srv socket ->
        let c = Client.connect_unix socket in
        let resp = Client.request c (Json.parse request) in
        Alcotest.(check bool) "cold miss" true
          (member_exn "cached" resp = Json.Bool false);
        let r = Json.to_string (member_exn "result" resp) in
        Client.close c;
        r)
  in
  (* a brand-new daemon process state, same store directory *)
  with_server ~store_dir:dir (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp = Client.request c (Json.parse request) in
      Alcotest.(check bool) "warm hit" true
        (member_exn "cached" resp = Json.Bool true);
      Alcotest.(check string) "byte-identical across restart" cold
        (Json.to_string (member_exn "result" resp));
      Client.close c)

let test_server_shutdown_verb_drains () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp = Client.request c (Json.parse {|{"id":1,"verb":"shutdown"}|}) in
      Alcotest.(check bool) "ack" true (member_exn "ok" resp = Json.Bool true);
      (* after the drain the daemon closes the connection *)
      let closed =
        try
          ignore (Client.recv c);
          false
        with End_of_file | Sys_error _ -> true
      in
      Alcotest.(check bool) "connection closed" true closed;
      Client.close c)

(* a fresh in-process runtime for calling [Compute.run] directly *)
let with_runtime f =
  let shared = Optimize.create_shared ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Optimize.shutdown_shared shared)
    (fun () ->
      f { Compute.shared = (fun () -> shared); obs = Adc_obs.null; store = None })

let parse_ok line =
  match Protocol.parse_request_line line with
  | Ok r -> r
  | Error (_, m, _) -> Alcotest.failf "parse: %s" m

let test_worker_misdispatch_is_typed_error () =
  (* stats/shutdown are answered inline at admission; if one ever reaches
     the worker queue, the worker's computation must yield a typed
     internal error — the old [assert false] here silently killed the
     worker thread, shrinking the pool *)
  with_runtime (fun rt ->
      List.iter
        (fun line ->
          match
            Compute.run rt (parse_ok line)
              ~cancel:(Cancel.create ())
              ~emit:(fun _ -> Alcotest.fail "inline verbs must not stream")
          with
          | Error (Protocol.Internal, msg) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s names the misdispatch" line)
              true
              (contains msg "misdispatched")
          | Error (k, m) ->
            Alcotest.failf "wrong error kind %s: %s" (Protocol.error_name k) m
          | Ok _ -> Alcotest.fail "inline-only verb computed a payload")
        [ {|{"verb":"stats"}|}; {|{"verb":"shutdown"}|} ])

(* every compute verb refuses a spec outside the modeled range as the
   client's fault, before any work (hybrid rows would synthesize for
   minutes if validation came late) *)
let out_of_range_requests =
  [
    {|{"verb":"optimize","k":3}|};
    {|{"verb":"optimize","k":3,"mode":"hybrid"}|};
    {|{"verb":"enumerate","k":20}|};
    {|{"verb":"enumerate","k":3}|};
    {|{"verb":"enumerate","k":12,"fs_mhz":0}|};
    {|{"verb":"montecarlo","k":3}|};
    {|{"verb":"montecarlo","k":10,"trials":0}|};
    {|{"verb":"synth","m":0}|};
    {|{"verb":"synth","m":1}|};
    {|{"verb":"synth","bits":0}|};
    {|{"verb":"synth","fs_mhz":-5}|};
    {|{"verb":"netlist-emit","m":0}|};
    {|{"verb":"netlist-emit","m":1}|};
    {|{"verb":"batch","ks":[3]}|};
    {|{"verb":"batch","ks":[10,17],"mode":"hybrid"}|};
    {|{"verb":"sweep","from":10,"to":8}|};
    {|{"verb":"sweep","from":10,"to":9}|};
    {|{"verb":"sweep","from":7,"to":9,"mode":"hybrid"}|};
    {|{"verb":"pareto","ks":[3],"fs_list":[40]}|};
    {|{"verb":"pareto","ks":[10],"fs_list":[-1]}|};
  ]

let test_out_of_range_refused () =
  with_runtime (fun rt ->
      List.iter
        (fun line ->
          let req = parse_ok line in
          let refused what = function
            | Error (Protocol.Bad_request, _) -> ()
            | Error (k, m) ->
              Alcotest.failf "%s %s: %s (%s)" what line (Protocol.error_name k) m
            | Ok _ -> Alcotest.failf "%s %s: not refused" what line
          in
          refused "validate" (Compute.validate req);
          refused "run"
            (Compute.run rt req ~cancel:(Cancel.create ())
               ~emit:(fun _ -> Alcotest.failf "%s streamed" line)))
        out_of_range_requests)

(* a netlist-emit whose deadline stopped every restart has no deck: the
   answer is the deadline's, not the daemon's fault *)
let test_netlist_cut_by_deadline () =
  with_runtime (fun rt ->
      let cancel = Cancel.create () in
      Cancel.cancel cancel;
      match
        Compute.run rt
          (parse_ok {|{"verb":"netlist-emit","m":2,"bits":6,"attempts":1}|})
          ~cancel ~emit:ignore
      with
      | Error (Protocol.Deadline_exceeded, _) -> ()
      | Error (k, m) -> Alcotest.failf "%s: %s" (Protocol.error_name k) m
      | Ok _ -> Alcotest.fail "a deck without a finished restart")

let test_server_pareto_streams_and_replays () =
  let dir = tmp_dir "adcopt-serve-pareto" in
  with_server ~store_dir:dir (fun _srv socket ->
      let c = Client.connect_unix socket in
      let req = Json.parse {|{"id":21,"verb":"pareto","ks":[10,11],"fs_list":[40]}|} in
      let lines = ref [] in
      let final =
        Client.request_stream c req ~on_line:(fun l -> lines := l :: !lines)
      in
      let cold_lines = List.rev_map Json.to_string !lines in
      Alcotest.(check bool) "final ok" true (member_exn "ok" final = Json.Bool true);
      Alcotest.(check bool) "final line is the stream end" true
        (member_exn "stream" final = Json.String "end");
      Alcotest.(check bool) "cold" true
        (member_exn "cached" final = Json.Bool false);
      Alcotest.(check bool) "id echoed on the final line" true
        (member_exn "id" final = Json.Int 21);
      let result = member_exn "result" final in
      let front =
        match member_exn "front" result with
        | Json.List l -> l
        | _ -> Alcotest.fail "front is not a list"
      in
      (* equation-mode power grows with k, so both cells are on the front
         and each was streamed exactly once, in (k desc) traversal order *)
      Alcotest.(check int) "both cells on the front" 2 (List.length front);
      Alcotest.(check int) "one point line per front cell" 2
        (List.length cold_lines);
      List.iter2
        (fun line k ->
          let j = Json.parse line in
          Alcotest.(check bool) "point envelope" true
            (member_exn "stream" j = Json.String "point"
            && member_exn "id" j = Json.Int 21);
          let r = member_exn "result" j in
          Alcotest.(check bool) "traversal order" true
            (member_exn "k" r = Json.Int k);
          let solo =
            Json.to_string
              (Codec.optimize_payload
                 (Optimize.run ~mode:`Equation ~seed:11 ~attempts:3
                    (Spec.make ~k ~fs:40e6 ())))
          in
          Alcotest.(check string)
            (Printf.sprintf "streamed k=%d optimize == one-shot, byte for byte" k)
            solo
            (Json.to_string (member_exn "optimize" r)))
        cold_lines [ 11; 10 ];
      (* same request again: the store hit must replay the same point
         lines and answer cached:true with identical summary bytes *)
      let lines2 = ref [] in
      let final2 =
        Client.request_stream c req ~on_line:(fun l -> lines2 := l :: !lines2)
      in
      Alcotest.(check bool) "warm hit" true
        (member_exn "cached" final2 = Json.Bool true);
      Alcotest.(check (list string)) "replayed point lines byte-identical"
        cold_lines
        (List.rev_map Json.to_string !lines2);
      Alcotest.(check string) "summary result byte-identical across replay"
        (Json.to_string result)
        (Json.to_string (member_exn "result" final2));
      Client.close c)

let test_server_pareto_bad_axes () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp =
        Client.request_stream c
          (Json.parse {|{"id":3,"verb":"pareto","ks":[],"fs_list":[40]}|})
          ~on_line:(fun l ->
            Alcotest.failf "streamed before failing: %s" (Json.to_string l))
      in
      Alcotest.(check bool) "refused" true
        (member_exn "ok" resp = Json.Bool false);
      Alcotest.(check bool) "typed bad_request" true
        (member_exn "error" resp = Json.String "bad_request");
      Client.close c)

let test_server_bad_requests () =
  with_server ~workers:1 (fun _srv socket ->
      let c = Client.connect_unix socket in
      Client.set_read_timeout_ms c 30_000;
      List.iter
        (fun line ->
          let resp = Client.request c (Json.parse line) in
          Alcotest.(check bool) (line ^ ": bad verb refused") true
            (member_exn "error" resp = Json.String "bad_request"))
        [
          {|{"verb":"warp"}|};
          {|{"verb":"job-put","key":"job-1","payload":{}}|};
          {|{"verb":"job-get","key":"job-2"}|};
          {|{"verb":"store-put","key":"entry-1","digest":"00","payload":{}}|};
          {|{"verb":"store-get","key":"entry-2"}|};
        ];
      (* the one worker survived: a queued verb is still answered *)
      let resp = Client.request c (Json.parse {|{"verb":"enumerate","k":10}|}) in
      Alcotest.(check bool) "worker still serves" true
        (member_exn "ok" resp = Json.Bool true);
      let resp2 =
        Client.request c
          (Json.parse {|{"id":5,"verb":"montecarlo","k":10,"trials":2,"config":"9-9"}|})
      in
      Alcotest.(check bool) "bad config refused" true
        (member_exn "ok" resp2 = Json.Bool false);
      Client.close c)

let test_server_out_of_range_optimize () =
  with_server (fun _srv socket ->
      let c = Client.connect_unix socket in
      let resp = Client.request c (Json.parse {|{"id":3,"verb":"optimize","k":3}|}) in
      Alcotest.(check bool) "refused" true (member_exn "ok" resp = Json.Bool false);
      Alcotest.(check bool) "the client's fault" true
        (member_exn "error" resp = Json.String "bad_request");
      Alcotest.(check bool) "names the modeled range" true
        (match member_exn "message" resp with
        | Json.String m -> contains m "modeled range"
        | _ -> false);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* the live operations plane *)

(* minimal HTTP/1.0 client for the ops listener: one GET, read to EOF,
   split status from body *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          slurp ()
      in
      slurp ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "unparseable HTTP response: %s" raw
      in
      let body =
        let sep = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length raw then None
          else if String.sub raw i 4 = sep then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with
        | Some i -> String.sub raw i (String.length raw - i)
        | None -> ""
      in
      (status, body))

let test_server_req_id_envelope () =
  let obs = Adc_obs.in_memory () in
  with_server
    ~cfg:(fun c -> { c with Server.obs })
    (fun _srv socket ->
      let c = Client.connect_unix socket in
      (* no client req_id: the envelope must not grow the field *)
      let bare = Client.request c (Json.parse {|{"id":1,"verb":"ping"}|}) in
      Alcotest.(check bool) "no req_id member when client sent none" true
        (Json.member "req_id" bare = None);
      (* client-chosen id: echoed verbatim, before the result member *)
      let resp =
        Client.request c
          (Json.parse {|{"id":2,"verb":"ping","req_id":"cli-abc42"}|})
      in
      Alcotest.(check bool) "req_id echoed" true
        (member_exn "req_id" resp = Json.String "cli-abc42");
      Alcotest.(check bool) "still ok" true
        (member_exn "ok" resp = Json.Bool true);
      Client.close c;
      (* the same id must be stamped on the request span *)
      let rid_of e =
        match List.assoc_opt "req_id" e.Adc_obs.Sink.attrs with
        | Some (Adc_obs.Sink.String s) -> Some s
        | _ -> None
      in
      let events = Adc_obs.Sink.events obs.Adc_obs.sink in
      let request_spans =
        List.filter (fun e -> e.Adc_obs.Sink.name = "serve.request") events
      in
      Alcotest.(check bool) "span attr carries the wire req_id" true
        (List.exists (fun e -> rid_of e = Some "cli-abc42") request_spans);
      (* the bare request still got a daemon-generated id on its span *)
      Alcotest.(check bool) "generated rid stamped when client sent none" true
        (List.exists
           (fun e ->
             match rid_of e with
             | Some s -> String.length s > 0 && s.[0] = 'r'
             | None -> false)
           request_spans))

let test_server_ops_plane_scrape () =
  let obs = Adc_obs.in_memory () in
  with_server
    ~cfg:(fun c ->
      { c with Server.obs; metrics_addr = Some ("127.0.0.1", 0) })
    (fun srv socket ->
      let port =
        match Server.metrics_port srv with
        | Some p -> p
        | None -> Alcotest.fail "metrics listener did not bind"
      in
      let c = Client.connect_unix socket in
      ignore (Client.request c (Json.parse {|{"verb":"ping"}|}));
      let status, body = http_get port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 status;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let status, body = http_get port "/readyz" in
      Alcotest.(check int) "readyz 200 while accepting" 200 status;
      Alcotest.(check string) "readyz body" "ready\n" body;
      let status, scraped = http_get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      (* one shared exposition path: the live scrape must be byte-identical
         to rendering the same registry through the offline exporter *)
      let offline =
        Adc_report.Trace_export.prometheus
          (Adc_obs.Metrics.snapshot obs.Adc_obs.metrics)
      in
      Alcotest.(check string) "scrape == Trace_export.prometheus, bytes"
        offline scraped;
      Alcotest.(check bool) "request counter present and non-zero" true
        (contains scraped "adcopt_serve_requests_total 1");
      Alcotest.(check bool) "solver counters exposed" true
        (contains scraped "adcopt_solver_sparse_solves_total");
      Alcotest.(check bool) "scrapes counted" true
        (contains scraped "adcopt_serve_scrapes_total 1");
      (* the evaluator's DC, bias-servo and root-finding work reaches the
         scrape: the counters are preregistered and move once a hybrid
         optimize has run (servo fallbacks are rare, and root-finding now
         stops at its rounding floor before max_iter, so those two need
         only be present) *)
      let counter text name =
        let prefix = "adcopt_" ^ name ^ " " in
        match
          List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
        with
        | Some line ->
          float_of_string
            (String.sub line (String.length prefix) (String.length line - String.length prefix))
        | None -> Alcotest.failf "%s missing from the scrape" name
      in
      let evaluator_counters =
        [
          "solver_dc_solves_total";
          "solver_dc_newton_iterations_total";
          "solver_poly_roots_total";
          "solver_aberth_iterations_total";
          "solver_aberth_floor_stops_total";
          "solver_servo_probes_total";
        ]
      in
      ignore (counter scraped "solver_servo_fallbacks_total");
      ignore (counter scraped "solver_aberth_max_iter_total");
      let before = List.map (counter scraped) evaluator_counters in
      let hybrid =
        Client.request c
          (Json.parse
             {|{"verb":"optimize","k":10,"mode":"hybrid","seed":7,"attempts":1,"budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}}|})
      in
      Alcotest.(check bool) "hybrid optimize ok" true
        (member_exn "ok" hybrid = Json.Bool true);
      let _, rescraped = http_get port "/metrics" in
      List.iter2
        (fun name b ->
          Alcotest.(check bool) (name ^ " moved") true (counter rescraped name > b))
        evaluator_counters before;
      (* hold a worker busy so the drain stays open, then watch /readyz
         flip to 503 while the daemon finishes the in-flight ping *)
      let slow =
        Thread.create
          (fun () ->
            let c2 = Client.connect_unix socket in
            ignore
              (Client.request c2
                 (Json.parse {|{"verb":"ping","delay_ms":700}|}));
            Client.close c2)
          ()
      in
      Thread.delay 0.15;
      Server.stop srv;
      Thread.delay 0.05;
      let status, body = http_get port "/readyz" in
      Alcotest.(check int) "readyz 503 during drain" 503 status;
      Alcotest.(check string) "draining body" "draining\n" body;
      Thread.join slow;
      Client.close c)

(* A fresh daemon's first scrape lists one counter per solver tally,
   at 0, before any request ran: the exposition shape dashboards and the
   CI greps key on. A tally exists only if its module is linked, so this
   also pins which modules the daemon links. *)
let test_server_first_scrape_lists_solver_tallies () =
  let obs = Adc_obs.in_memory () in
  with_server
    ~cfg:(fun c -> { c with Server.obs; metrics_addr = Some ("127.0.0.1", 0) })
    (fun srv _socket ->
      let port =
        match Server.metrics_port srv with
        | Some p -> p
        | None -> Alcotest.fail "metrics listener did not bind"
      in
      let _, scraped = http_get port "/metrics" in
      let solver_lines =
        List.filter
          (String.starts_with ~prefix:"adcopt_solver_")
          (String.split_on_char '\n' scraped)
      in
      let expected =
        List.map
          (fun n -> "adcopt_solver_" ^ n ^ " 0")
          [
            "aberth_floor_stops_total";
            "aberth_iterations_total";
            "aberth_max_iter_total";
            "dc_newton_iterations_total";
            "dc_solves_total";
            "dpi_programs_total";
            "newton_iterations_total";
            "pivot_drift_total";
            "pivot_order_hits_total";
            "poly_roots_total";
            "servo_calls_total";
            "servo_fallbacks_total";
            "servo_probes_total";
            "shared_analyses_total";
            "sparse_analyses_total";
            "sparse_refactorizations_total";
            "sparse_solves_total";
            "transient_accepted_steps_total";
            "transient_rejected_steps_total";
            "transient_runs_total";
          ]
      in
      Alcotest.(check (list string)) "every solver tally, at 0" expected solver_lines)

(* The exit table reads the registry after [Server.run] returns: the
   solver work of a daemon that was never scraped nor asked for stats
   must be in it. *)
let test_server_exit_registry_has_solver_work () =
  let obs = Adc_obs.in_memory () in
  with_server
    ~cfg:(fun c -> { c with Server.obs })
    (fun _srv socket ->
      let c = Client.connect_unix socket in
      let hybrid =
        Client.request c
          (Json.parse
             {|{"verb":"optimize","k":10,"mode":"hybrid","seed":7,"attempts":1,"budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}}|})
      in
      Alcotest.(check bool) "hybrid optimize ok" true (member_exn "ok" hybrid = Json.Bool true);
      Client.close c);
  match List.assoc_opt "solver.dc_solves_total" (Adc_obs.Metrics.snapshot obs.Adc_obs.metrics) with
  | Some (Adc_obs.Metrics.Counter n) ->
    Alcotest.(check bool) (Printf.sprintf "%d DC solves folded at exit" n) true (n > 0)
  | _ -> Alcotest.fail "solver.dc_solves_total missing from the registry"

let test_server_dump_trace_roundtrip () =
  with_server
    ~cfg:(fun c -> { c with Server.flight_capacity = 64 })
    (fun srv socket ->
      let c = Client.connect_unix socket in
      ignore (Client.request c (Json.parse {|{"verb":"ping"}|}));
      ignore (Client.request c (Json.parse {|{"verb":"ping"}|}));
      let lines = ref [] in
      let final =
        Client.request_stream c
          (Json.parse {|{"id":7,"verb":"dump-trace"}|})
          ~on_line:(fun l -> lines := l :: !lines)
      in
      let points = List.rev !lines in
      Alcotest.(check bool) "final ok" true
        (member_exn "ok" final = Json.Bool true);
      Alcotest.(check bool) "stream end" true
        (member_exn "stream" final = Json.String "end");
      let summary = member_exn "result" final in
      Alcotest.(check bool) "summary counts the dumped events" true
        (member_exn "events" summary = Json.Int (List.length points));
      Alcotest.(check bool) "nothing evicted at this volume" true
        (member_exn "dropped" summary = Json.Int 0);
      Alcotest.(check bool) "capacity advertised" true
        (member_exn "capacity" summary = Json.Int 64);
      Alcotest.(check bool) "ring captured the pings" true
        (List.length points >= 2);
      (* every point line's result is a span the trace toolchain parses:
         this is the contract that makes
         [adcopt call --extract result | adcopt trace summary -] work *)
      let parsed =
        List.map
          (fun line ->
            Alcotest.(check bool) "point envelope" true
              (member_exn "stream" line = Json.String "point"
              && member_exn "id" line = Json.Int 7);
            Adc_report.Trace_reader.parse
              (Json.to_string (member_exn "result" line)))
          points
      in
      Alcotest.(check bool) "request spans present in the dump" true
        (List.exists
           (fun e -> e.Adc_obs.Sink.name = "serve.request")
           parsed);
      (* what went over the wire is exactly what the ring holds *)
      (match Server.flight_events srv with
      | Some (events, dropped) ->
        Alcotest.(check int) "ring still holds the dump" (List.length parsed)
          (List.length events);
        Alcotest.(check int) "no evictions" 0 dropped;
        List.iter2
          (fun wire live ->
            Alcotest.(check bool) "wire event == live event" true
              (wire = live))
          parsed events
      | None -> Alcotest.fail "flight recorder should be live");
      Client.close c)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          quick "defaults match the CLI" test_request_defaults;
          quick "field extraction" test_request_fields;
          quick "malformed requests rejected" test_request_rejects;
          quick "version gate" test_request_version_gate;
          quick "budget override decoding" test_request_budget;
          quick "dotted member_path descent" test_member_path;
          quick "verb names round-trip" test_verb_names_roundtrip;
          quick "error names round-trip" test_error_names_roundtrip;
          quick "response shapes" test_response_shapes;
          quick "grid syntax" test_parse_int_grid;
          quick "streaming envelope" test_streaming_envelope;
        ] );
      ( "store",
        [
          quick "round-trip across restart" test_store_roundtrip_restart;
          quick "distinct keys isolated" test_store_distinct_keys;
          quick "foreign-key entry is a miss" test_store_rejects_wrong_key;
          QCheck_alcotest.to_alcotest prop_store_roundtrip;
          QCheck_alcotest.to_alcotest prop_store_rejects_corruption;
          QCheck_alcotest.to_alcotest prop_store_rejects_truncation;
        ] );
      ( "deadlines",
        [
          slow "pre-cancelled run is truncated" test_cancelled_run_truncates;
          slow "shared runtime survives cancellation"
            test_shared_runtime_survives_cancellation;
          slow "cross-request job reuse is byte-identical"
            test_cross_request_job_reuse;
          slow "batch == sequential runs" test_batch_equals_sequential;
          slow "front grid == solo runs (bytes)" test_front_grid_equals_solo;
          slow "pool reusable after expiry" test_deadline_leaves_pool_reusable;
        ] );
      ( "daemon",
        [
          quick "ping and stats" test_server_ping_and_stats;
          quick "version mismatch rejected" test_server_version_mismatch;
          quick "batch == per-spec one-shots (bytes)" test_server_batch_equation;
          slow "cross-request job hits stay byte-identical"
            test_server_cross_request_job_hits;
          quick "served == one-shot (bytes)" test_server_optimize_byte_identical;
          quick "served sweep honours attempts" test_server_sweep_honours_attempts;
          quick "backpressure rejects deterministically" test_server_backpressure;
          quick "plain ping answers while the worker is busy"
            test_server_ping_answers_while_busy;
          quick "queued deadline expiry" test_server_deadline_exceeded;
          quick "store-warm restart replays" test_server_store_warm_restart;
          quick "shutdown verb drains" test_server_shutdown_verb_drains;
          quick "bad requests answered" test_server_bad_requests;
          quick "worker misdispatch answers a typed error"
            test_worker_misdispatch_is_typed_error;
          quick "out-of-range specs refused up front"
            test_out_of_range_refused;
          quick "served out-of-range optimize answers bad_request"
            test_server_out_of_range_optimize;
          quick "netlist-emit cut by its deadline answers deadline_exceeded"
            test_netlist_cut_by_deadline;
          quick "pareto streams then replays from the store"
            test_server_pareto_streams_and_replays;
          quick "pareto empty axis refused" test_server_pareto_bad_axes;
          quick "req_id echoed and stamped on spans" test_server_req_id_envelope;
          slow "ops plane: scrape, healthz, readyz flip"
            test_server_ops_plane_scrape;
          quick "first scrape lists every solver tally"
            test_server_first_scrape_lists_solver_tallies;
          quick "exit registry holds unscraped solver work"
            test_server_exit_registry_has_solver_work;
          quick "dump-trace round-trips the flight recorder"
            test_server_dump_trace_roundtrip;
        ] );
    ]
