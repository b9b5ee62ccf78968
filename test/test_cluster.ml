(* Tests for the sharded synthesis cluster: the pure consistent-hash
   ring (deterministic placement, monotone remapping on backend loss,
   distribution bounds — the QCheck properties), the health registry,
   and the router end to end over in-process fleets (routed answers
   byte-identical to a single daemon, kill-one-backend re-route mid
   batch, cross-node store replication, peer warm-start donation, and
   cluster-wide stats aggregation). *)

module Json = Adc_json.Json
module Protocol = Adc_serve.Protocol
module Server = Adc_serve.Server
module Client = Adc_serve.Client
module Ring = Adc_cluster.Ring
module Health = Adc_cluster.Health
module Donor = Adc_cluster.Donor
module Router = Adc_cluster.Router
module Transport = Adc_serve.Transport
module Http = Adc_serve.Http
module Optimize = Adc_pipeline.Optimize
module Spec = Adc_pipeline.Spec
module Job_key = Adc_pipeline.Job_key

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* ring: the pure placement module *)

let backend_ids n = List.init n (Printf.sprintf "backend-%d.sock")

let test_ring_basic () =
  let r = Ring.create ~vnodes:16 (backend_ids 3) in
  Alcotest.(check (list string)) "ids kept in first-occurrence order"
    (backend_ids 3) (Ring.backends r);
  Alcotest.(check int) "vnodes recorded" 16 (Ring.vnodes r);
  (* duplicates collapse *)
  let r2 = Ring.create ~vnodes:16 [ "a"; "b"; "a"; "b" ] in
  Alcotest.(check (list string)) "dedup" [ "a"; "b" ] (Ring.backends r2);
  Alcotest.check_raises "vnodes must be positive"
    (Invalid_argument "Ring.create: vnodes must be positive") (fun () ->
      ignore (Ring.create ~vnodes:0 [ "a" ]));
  (* single backend owns the whole keyspace *)
  let solo = Ring.create ~vnodes:4 [ "only" ] in
  Alcotest.(check (list (pair string (float 1e-9)))) "solo occupancy"
    [ ("only", 1.0) ]
    (Ring.occupancy solo)

let test_ring_successors () =
  let r = Ring.create ~vnodes:32 (backend_ids 4) in
  let succ = Ring.successors r "some-key" in
  Alcotest.(check int) "successors cover every backend" 4 (List.length succ);
  Alcotest.(check bool) "successors are distinct" true
    (List.length (List.sort_uniq compare succ) = 4);
  Alcotest.(check (option string)) "lookup = first successor"
    (Some (List.hd succ)) (Ring.lookup r "some-key");
  Alcotest.(check (list string)) "replicas = prefix of successors"
    [ List.nth succ 0; List.nth succ 1 ]
    (Ring.replicas r ~n:2 "some-key");
  Alcotest.(check (list string)) "replicas clamp at ring size" succ
    (Ring.replicas r ~n:99 "some-key")

(* deterministic placement: equal ring configurations place every key
   identically — the property that lets any router instance (or a
   restarted one) agree on ownership with no coordination *)
let prop_deterministic =
  QCheck.Test.make ~count:200 ~name:"ring: placement is deterministic"
    QCheck.(pair small_printable_string (int_range 2 6))
    (fun (key, n) ->
      let a = Ring.create ~vnodes:40 (backend_ids n) in
      let b = Ring.create ~vnodes:40 (backend_ids n) in
      Ring.lookup a key = Ring.lookup b key
      && Ring.successors a key = Ring.successors b key)

(* monotone consistency: removing one backend remaps only the keys it
   owned; every other key keeps its owner. This is the whole point of
   consistent hashing — a crash must not reshuffle the fleet's caches. *)
let prop_monotone =
  QCheck.Test.make ~count:60 ~name:"ring: removal remaps only the lost keys"
    QCheck.(pair (int_range 2 6) (small_list small_printable_string))
    (fun (n, keys) ->
      let ids = backend_ids n in
      let full = Ring.create ~vnodes:40 ids in
      let lost = List.nth ids (n - 1) in
      let reduced =
        Ring.create ~vnodes:40 (List.filter (fun b -> b <> lost) ids)
      in
      List.for_all
        (fun key ->
          match Ring.lookup full key with
          | Some owner when owner <> lost ->
            Ring.lookup reduced key = Some owner
          | Some _ ->
            (* the lost backend's keys must move to its ring successor *)
            Ring.lookup reduced key
            = (match Ring.successors full key with
              | _ :: next :: _ -> Some next
              | _ -> None)
          | None -> false)
        keys)

(* distribution: at 160 vnodes the keyspace split across 3+ backends is
   roughly even — no backend owns more than ~3x its fair share (the
   md5-point spread is tight in practice; the bound is deliberately
   loose so the test pins the property, not the hash) *)
let prop_distribution =
  QCheck.Test.make ~count:10 ~name:"ring: 160 vnodes spread the keyspace"
    QCheck.(int_range 3 6)
    (fun n ->
      let r = Ring.create ~vnodes:160 (backend_ids n) in
      let occ = Ring.occupancy r in
      let fair = 1.0 /. float_of_int n in
      List.length occ = n
      && List.for_all
           (fun (_, share) -> share > fair /. 3.0 && share < fair *. 3.0)
           occ
      && abs_float (List.fold_left (fun a (_, s) -> a +. s) 0.0 occ -. 1.0)
         < 1e-9)

(* ------------------------------------------------------------------ *)
(* health registry *)

let test_health () =
  let h = Health.create [ "a"; "b" ] in
  Alcotest.(check bool) "starts up" true (Health.is_up h "a");
  Alcotest.(check bool) "unknown is down" false (Health.is_up h "zzz");
  Alcotest.(check int) "up count" 2 (Health.up_count h);
  Health.mark h "a" false;
  Health.mark h "a" false;
  Alcotest.(check bool) "marked down" false (Health.is_up h "a");
  Alcotest.(check int) "idempotent transitions" 1 (Health.transitions h);
  Health.mark h "a" true;
  Alcotest.(check int) "flap counted" 2 (Health.transitions h);
  Alcotest.(check (list (pair string bool))) "snapshot in create order"
    [ ("a", true); ("b", true) ]
    (Health.snapshot h)

let test_donor () =
  let d = Donor.create () in
  Donor.record d ~digest:"d1" ~backend:"a";
  Donor.record d ~digest:"d1" ~backend:"b";
  Donor.record d ~digest:"d1" ~backend:"b";
  Alcotest.(check (list string)) "holders, most recent first" [ "b"; "a" ]
    (Donor.holders d ~digest:"d1");
  Alcotest.(check (option string)) "first writer is the origin" (Some "a")
    (Donor.origin d ~digest:"d1");
  Alcotest.(check int) "size" 1 (Donor.size d)

(* ------------------------------------------------------------------ *)
(* keys: one derivation for the daemon's store and the router's ring *)

(* a file of the source tree, found by walking up from the test binary
   so the suite runs from any cwd dune starts it in *)
let locate rel =
  let rec find dir n =
    let cand = Filename.concat dir rel in
    if Sys.file_exists cand || n = 0 then cand
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  find (Filename.dirname Sys.executable_name) 6

let read_file path = In_channel.with_open_bin path In_channel.input_all
let card_file name = read_file (locate ("share/processes/" ^ name))

let parse_exn line =
  match Protocol.parse_request_line line with
  | Ok req -> req
  | Error (_, msg, _) -> Alcotest.failf "unparseable %s: %s" line msg

(* every verb, with the fields its key reads *)
let key_rows =
  [
    ("ping", {|"verb":"ping"|});
    ("stats", {|"verb":"stats"|});
    ("shutdown", {|"verb":"shutdown"|});
    ("dump-trace", {|"verb":"dump-trace"|});
    ("enumerate", {|"verb":"enumerate","k":10,"fs_mhz":80|});
    ( "optimize",
      {|"verb":"optimize","k":11,"fs_mhz":80,"mode":"hybrid","seed":5,"attempts":2,"budget":{"sa_iterations":12,"pattern_evals":20,"space_factor":0.6}|}
    );
    ("sweep", {|"verb":"sweep","from":10,"to":12,"fs_mhz":40|});
    ("synth", {|"verb":"synth","m":3,"bits":10,"fs_mhz":40,"attempts":2|});
    ("montecarlo", {|"verb":"montecarlo","k":10,"trials":50|});
    ("montecarlo+config", {|"verb":"montecarlo","k":10,"config":"4-3-2"|});
    ("batch", {|"verb":"batch","ks":[10,11,12],"fs_mhz":40|});
    ("pareto", {|"verb":"pareto","ks":[10,12],"fs_list":[40,80]|});
    ("netlist-emit", {|"verb":"netlist-emit","m":2,"bits":6,"attempts":1|});
    ("store-put", {|"verb":"store-put","key":"entry-1","digest":"00","payload":{}|});
    ("store-get", {|"verb":"store-get","key":"entry-2"|});
    ("job-put", {|"verb":"job-put","key":"job-1","payload":{}|});
    ("job-get", {|"verb":"job-get","key":"job-2"|});
  ]

(* Every verb x {no card, c018, malformed card}, both keys. The golden
   table was rendered from the daemon's and the router's separate key
   functions before they merged into Protocol.key_of_request, so it
   pins that the merge moved no request to a new store slot or owner. *)
let test_key_table () =
  let cards =
    [ ("none", None); ("c018", Some (card_file "c018.sp")); ("malformed", Some "r1 a\n") ]
  in
  let show = function None -> "-" | Some k -> k in
  let rendered =
    List.concat_map
      (fun (card_name, card) ->
        List.map
          (fun (row, fields) ->
            let line =
              match card with
              | None -> Printf.sprintf "{%s}" fields
              | Some text ->
                Printf.sprintf {|{%s,"process":%s}|} fields
                  (Json.to_string (Json.String text))
            in
            let keys = Protocol.key_of_request (parse_exn line) in
            Printf.sprintf "%s %s\n  store %s\n  place %s" row card_name
              (show keys.Protocol.store) (show keys.Protocol.place))
          key_rows)
      cards
  in
  Alcotest.(check (list string)) "key table == golden"
    (String.split_on_char '\n' (read_file (locate "test/key_table.expected")))
    (String.split_on_char '\n' (String.concat "\n" rendered ^ "\n"))

(* a well-formed request of a cacheable verb is placed on the node that
   caches it *)
let prop_place_is_store =
  let cards =
    [ None; Some (card_file "c018.sp"); Some (card_file "c025.sp"); Some (card_file "c060.sp") ]
  in
  QCheck.Test.make ~count:300 ~name:"keys: cacheable verbs are placed where they are stored"
    QCheck.(
      quad
        (oneofl [ "optimize"; "sweep"; "synth"; "montecarlo"; "batch"; "pareto"; "netlist-emit" ])
        (pair (int_range 8 16) (oneofl [ 10.0; 40.0; 80.0; 200.0 ]))
        (pair (oneofl [ "equation"; "hybrid" ]) small_nat)
        (pair (oneofl cards) (option (oneofl [ "4-3-2"; "3-3-3-2" ]))))
    (fun (verb, (k, fs), (mode, seed), (card, config)) ->
      let fields =
        [
          ("verb", Json.String verb);
          ("k", Json.Int k);
          ("from", Json.Int k);
          ("to", Json.Int (k + 1));
          ("ks", Json.List [ Json.Int k; Json.Int (k + 2) ]);
          ("fs_mhz", Json.Float fs);
          ("fs_list", Json.List [ Json.Float fs; Json.Float (2.0 *. fs) ]);
          ("mode", Json.String mode);
          ("seed", Json.Int seed);
        ]
        @ (match card with Some c -> [ ("process", Json.String c) ] | None -> [])
        @ match config with Some c -> [ ("config", Json.String c) ] | None -> []
      in
      let keys = Protocol.key_of_request (parse_exn (Json.to_string (Json.Obj fields))) in
      keys.Protocol.store <> None && keys.Protocol.store = keys.Protocol.place)

(* ------------------------------------------------------------------ *)
(* end-to-end fleets *)

type fleet = {
  fl_front : string;
  fl_router : Router.t;
  fl_backends : (string * Server.t * Thread.t) list;
  fl_router_thread : Thread.t;
  fl_dir : string;
}

let start_fleet ?(n = 3) ?(replicas = 2) ?(replication = true)
    ?(donation = true) ?(route = Fun.id) () =
  let dir = tmp_dir "adcopt-cluster" in
  let backends =
    List.init n (fun i ->
        let sock = Filename.concat dir (Printf.sprintf "b%d.sock" i) in
        let store = Filename.concat dir (Printf.sprintf "store%d" i) in
        Unix.mkdir store 0o755;
        let srv =
          Server.create
            {
              Server.default_config with
              Server.socket_path = Some sock;
              queue_depth = 16;
              workers = 2;
              store_dir = Some store;
              node_id = Some (Printf.sprintf "b%d" i);
            }
        in
        (sock, srv, Thread.create Server.run srv))
  in
  let front = Filename.concat dir "front.sock" in
  let router =
    Router.create
      (route
         {
           Router.default_config with
           Router.backends = List.map (fun (s, _, _) -> s) backends;
           socket_path = Some front;
           replicas;
           replication;
           donation;
           probe_period_s = 0.0;
           node_id = Some "router";
         })
  in
  let router_thread = Thread.create Router.run router in
  {
    fl_front = front;
    fl_router = router;
    fl_backends = backends;
    fl_router_thread = router_thread;
    fl_dir = dir;
  }

let stop_fleet fleet =
  Router.stop fleet.fl_router;
  Thread.join fleet.fl_router_thread;
  List.iter
    (fun (_, srv, thread) ->
      Server.stop srv;
      Thread.join thread)
    fleet.fl_backends

let with_fleet ?n ?replicas ?replication ?donation ?route f =
  let fleet = start_fleet ?n ?replicas ?replication ?donation ?route () in
  Fun.protect ~finally:(fun () -> stop_fleet fleet) (fun () -> f fleet)

(* run one request through a fresh connection *)
let call sock json =
  let c = Client.connect_unix ~timeout_ms:2000 sock in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request c (Json.parse json))

let call_stream sock json =
  let c = Client.connect_unix ~timeout_ms:2000 sock in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let lines = ref [] in
      let final =
        Client.request_stream c (Json.parse json) ~on_line:(fun l ->
            lines := l :: !lines)
      in
      (List.rev !lines, final))

let test_cluster_ping_and_single_verbs () =
  with_fleet ~n:3 (fun fleet ->
      let resp = call fleet.fl_front {|{"id":1,"verb":"ping"}|} in
      Alcotest.(check bool) "ping ok" true
        (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool) "id echoed" true
        (member_exn "id" resp = Json.Int 1);
      let resp = call fleet.fl_front {|{"verb":"enumerate","k":10}|} in
      Alcotest.(check bool) "enumerate routed" true
        (member_exn "ok" resp = Json.Bool true))

(* routed answers must be byte-identical to a single daemon's: cold
   compute through the router, warm hit through the router, and a solo
   daemon all produce the same envelope-stripped payload bytes *)
let test_cluster_byte_identity () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"optimize","k":11,"fs_mhz":80}|} in
      let cold = call fleet.fl_front req in
      let warm = call fleet.fl_front req in
      Alcotest.(check bool) "cold is uncached" true
        (member_exn "cached" cold = Json.Bool false);
      Alcotest.(check bool) "warm is cached" true
        (member_exn "cached" warm = Json.Bool true);
      Alcotest.(check string) "routed hit bytes == routed cold bytes"
        (Json.to_string (member_exn "result" cold))
        (Json.to_string (member_exn "result" warm));
      (* against a standalone daemon *)
      let dir = tmp_dir "adcopt-cluster-solo" in
      let sock = Filename.concat dir "solo.sock" in
      let srv =
        Server.create
          { Server.default_config with Server.socket_path = Some sock }
      in
      let thread = Thread.create Server.run srv in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Thread.join thread)
        (fun () ->
          let solo = call sock req in
          Alcotest.(check string) "routed bytes == solo daemon bytes"
            (Json.to_string (member_exn "result" solo))
            (Json.to_string (member_exn "result" cold))))

let test_cluster_batch_fan () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|} in
      let routed = call fleet.fl_front req in
      Alcotest.(check bool) "batch ok" true
        (member_exn "ok" routed = Json.Bool true);
      let dir = tmp_dir "adcopt-cluster-solo" in
      let sock = Filename.concat dir "solo.sock" in
      let srv =
        Server.create
          { Server.default_config with Server.socket_path = Some sock }
      in
      let thread = Thread.create Server.run srv in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Thread.join thread)
        (fun () ->
          let solo = call sock req in
          Alcotest.(check string) "fanned batch bytes == solo daemon bytes"
            (Json.to_string (member_exn "result" solo))
            (Json.to_string (member_exn "result" routed))))

let test_cluster_pareto_fan () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"pareto","ks":[10,12],"fs_mhz_list":[40,80]}|} in
      let routed_lines, routed_final = call_stream fleet.fl_front req in
      Alcotest.(check bool) "pareto ok" true
        (member_exn "ok" routed_final = Json.Bool true);
      let dir = tmp_dir "adcopt-cluster-solo" in
      let sock = Filename.concat dir "solo.sock" in
      let srv =
        Server.create
          { Server.default_config with Server.socket_path = Some sock }
      in
      let thread = Thread.create Server.run srv in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Thread.join thread)
        (fun () ->
          let solo_lines, solo_final = call_stream sock req in
          Alcotest.(check int) "same stream shape"
            (List.length solo_lines) (List.length routed_lines);
          List.iter2
            (fun s r ->
              Alcotest.(check string) "stream point bytes"
                (Json.to_string (member_exn "result" s))
                (Json.to_string (member_exn "result" r)))
            solo_lines routed_lines;
          Alcotest.(check string) "fanned pareto summary bytes"
            (Json.to_string (member_exn "result" solo_final))
            (Json.to_string (member_exn "result" routed_final))))

(* kill 1 of 3 backends, then run a batch touching every backend's keys:
   the stream must complete via re-route, byte-identically *)
let test_cluster_kill_backend_reroutes () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|} in
      let before = call fleet.fl_front req in
      (* stop a backend the hard way: no drain announcement reaches the
         router, so the failure is discovered at forward time *)
      let _, victim, vthread = List.nth fleet.fl_backends 2 in
      Server.stop victim;
      Thread.join vthread;
      let after = call fleet.fl_front req in
      Alcotest.(check bool) "batch survives the kill" true
        (member_exn "ok" after = Json.Bool true);
      Alcotest.(check string) "re-routed bytes unchanged"
        (Json.to_string (member_exn "result" before))
        (Json.to_string (member_exn "result" after));
      Alcotest.(check bool) "re-routes counted" true
        (Router.reroutes fleet.fl_router >= 0))

let test_cluster_whole_ring_down () =
  with_fleet ~n:2 (fun fleet ->
      List.iter
        (fun (_, srv, thread) ->
          Server.stop srv;
          Thread.join thread)
        fleet.fl_backends;
      let resp =
        call fleet.fl_front
          {|{"verb":"optimize","k":10,"fs_mhz":80,"deadline_ms":3000}|}
      in
      Alcotest.(check bool) "whole ring down is typed" true
        (member_exn "ok" resp = Json.Bool false);
      Alcotest.(check bool) "backend_unavailable" true
        (member_exn "error" resp = Json.String "backend_unavailable"))

(* replication: a key computed on its owner is offered to ring replicas;
   when the owner dies, the successor answers the same bytes from its
   store — a cross-node cache hit *)
let test_cluster_replication_failover () =
  with_fleet ~n:3 ~replicas:3 (fun fleet ->
      let reqs =
        List.map
          (Printf.sprintf
             {|{"verb":"optimize","k":%d,"fs_mhz":80}|})
          [ 10; 11; 12; 13 ]
      in
      let cold = List.map (fun r -> call fleet.fl_front r) reqs in
      (* let the async store-put offers land *)
      let rec settle tries =
        if tries > 0 && Router.replica_offers fleet.fl_router < 4 then begin
          Thread.delay 0.05;
          settle (tries - 1)
        end
      in
      settle 100;
      Alcotest.(check bool) "replication offered entries" true
        (Router.replica_offers fleet.fl_router > 0);
      (* kill every backend but the first: survivors must answer every
         key from replicated stores, byte-identically *)
      List.iteri
        (fun i (_, srv, thread) ->
          if i > 0 then begin
            Server.stop srv;
            Thread.join thread
          end)
        fleet.fl_backends;
      List.iter2
        (fun req cold_resp ->
          let resp = call fleet.fl_front req in
          Alcotest.(check bool) "survivor answers" true
            (member_exn "ok" resp = Json.Bool true);
          Alcotest.(check string) "replica-served bytes unchanged"
            (Json.to_string (member_exn "result" cold_resp))
            (Json.to_string (member_exn "result" resp)))
        reqs cold;
      Alcotest.(check bool) "cross-node hits counted" true
        (Router.replica_hits fleet.fl_router > 0))

(* donation: a hybrid spec's synthesis lineages computed on one backend
   warm-start a dependent spec owned by another. Few (k, fs) pairs share
   a lineage, and the ring hashes backend paths under a fresh temp dir,
   so the pair is picked through the router's own placement (the ring
   over the backend sockets, keyed by Protocol.key_of_request) to land
   on two different owners. *)
let test_cluster_donation () =
  with_fleet ~n:3 (fun fleet ->
      let budget =
        { Adc_synth.Synthesizer.sa_iterations = 10; pattern_evals = 5; space_factor = 0.05 }
      in
      let opt (k, fs) =
        Printf.sprintf
          {|{"verb":"optimize","k":%d,"fs_mhz":%g,"mode":"hybrid","attempts":1,"budget":{"sa_iterations":10,"pattern_evals":5,"space_factor":0.05}}|}
          k fs
      in
      let ring =
        Ring.create ~vnodes:Router.default_config.Router.vnodes
          (List.map (fun (s, _, _) -> s) fleet.fl_backends)
      in
      let owner cell =
        Option.bind (Protocol.key_of_request (parse_exn (opt cell))).Protocol.place
          (Ring.lookup ring)
      in
      let lineage (k, fs) =
        List.map Job_key.digest
          (Optimize.plan_job_keys ~mode:`Hybrid ~seed:11 ~attempts:1 ~budget
             (Spec.make ~k ~fs:(fs *. 1e6) ()))
      in
      let cells =
        List.concat_map
          (fun fs -> List.map (fun k -> (k, fs)) [ 9; 10; 11; 12 ])
          [ 200.0; 150.0; 250.0; 100.0; 300.0 ]
      in
      let dependent (ka, fa) (kb, fb) =
        ka < kb && fa = fb
        && List.exists (fun d -> List.mem d (lineage (kb, fb))) (lineage (ka, fa))
      in
      match
        List.find_map
          (fun a ->
            List.find_map
              (fun b -> if dependent a b && owner a <> owner b then Some (a, b) else None)
              cells)
          cells
      with
      | None -> Alcotest.fail "no lineage-sharing pair spans two owners"
      | Some (a, b) ->
        Alcotest.(check bool) "precondition: the pair has two distinct owners" true
          (owner a <> None && owner b <> None && owner a <> owner b);
        List.iter
          (fun ((k, fs) as cell) ->
            let resp = call fleet.fl_front (opt cell) in
            Alcotest.(check bool)
              (Printf.sprintf "hybrid optimize k=%d fs=%g ok" k fs)
              true
              (member_exn "ok" resp = Json.Bool true))
          [ a; b ];
        Alcotest.(check bool) "donations brokered" true
          (Router.donations fleet.fl_router > 0))

(* a fanned batch's sub-results are never replicated under a cell's solo
   optimize key, where a replica would answer an optimize with a batch
   payload after failover *)
let test_cluster_batch_not_replicated_as_optimize () =
  with_fleet ~n:3 ~replicas:3 (fun fleet ->
      let ks = [ 10; 11; 12; 13 ] in
      let resp = call fleet.fl_front {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|} in
      Alcotest.(check bool) "batch ok" true (member_exn "ok" resp = Json.Bool true);
      (* let any asynchronous replication offers land *)
      Thread.delay 0.3;
      List.iter
        (fun k ->
          let key =
            Adc_serve.Codec.key_optimize ~k ~fs_mhz:80.0 ~mode:`Equation ~seed:11
              ~attempts:3 ()
          in
          List.iter
            (fun (sock, _, _) ->
              let found =
                call sock
                  (Json.to_string
                     (Json.Obj
                        [ ("verb", Json.String "store-get"); ("key", Json.String key) ]))
              in
              match Json.member_path "result.payload" found with
              | None -> ()
              | Some payload ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s holds an optimize payload for k=%d"
                     (Filename.basename sock) k)
                  true
                  (Json.member "k" payload = Some (Json.Int k)
                  && Json.member "runs" payload = None))
            fleet.fl_backends)
        ks)

let test_cluster_stats_aggregation () =
  with_fleet ~n:3 (fun fleet ->
      (* generate some traffic first *)
      ignore (call fleet.fl_front {|{"verb":"optimize","k":10,"fs_mhz":80}|});
      ignore (call fleet.fl_front {|{"verb":"optimize","k":12,"fs_mhz":80}|});
      let resp = call fleet.fl_front {|{"verb":"stats"}|} in
      let result = member_exn "result" resp in
      Alcotest.(check bool) "marked as cluster stats" true
        (member_exn "cluster" result = Json.Bool true);
      let backends =
        match member_exn "backends" result with
        | Json.List l -> l
        | _ -> Alcotest.fail "backends not a list"
      in
      Alcotest.(check int) "one entry per backend" 3 (List.length backends);
      (* the aggregate is the sum of the per-backend counters *)
      let sum name =
        List.fold_left
          (fun acc b ->
            match Json.member_path ("stats." ^ name) b with
            | Some (Json.Int n) -> acc + n
            | _ -> acc)
          0 backends
      in
      let aggregate = member_exn "aggregate" result in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "aggregate.%s = sum of backends" name)
            true
            (member_exn name aggregate = Json.Int (sum name)))
        [ "requests"; "completed"; "failed"; "job_hits"; "job_misses" ];
      (* ring occupancy sums to 1 *)
      let occ =
        match Json.member_path "ring.occupancy" result with
        | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (_, v) ->
              match v with Json.Float f -> acc +. f | _ -> acc)
            0.0 fields
        | _ -> Alcotest.fail "no ring occupancy"
      in
      Alcotest.(check (float 1e-9)) "occupancy sums to 1" 1.0 occ;
      Alcotest.(check bool) "router counters present" true
        (Json.member_path "router.requests" result <> None))

let test_cluster_shutdown_propagates () =
  let fleet = start_fleet ~n:2 () in
  let resp = call fleet.fl_front {|{"verb":"shutdown"}|} in
  Alcotest.(check bool) "stopping acknowledged" true
    (member_exn "ok" resp = Json.Bool true
    && Json.member_path "result.stopping" resp = Some (Json.Bool true));
  (* the drain propagated: backends and router all wind down *)
  Thread.join fleet.fl_router_thread;
  List.iter
    (fun (_, srv, thread) ->
      Server.stop srv;
      (* idempotent; the verb should already have stopped them *)
      Thread.join thread)
    fleet.fl_backends

(* the router's ops plane: liveness, readiness that follows the drain and
   the fleet's health, and the route.* counters in the scrape *)
let test_router_ops_plane () =
  let get port path =
    match Http.get ~host:"127.0.0.1" ~port path with
    | Some r -> r
    | None -> Alcotest.failf "GET %s failed" path
  in
  let with_ops c =
    {
      c with
      Router.obs = Adc_obs.in_memory ();
      metrics_addr = Some ("127.0.0.1", 0);
    }
  in
  let ops_port router =
    match Router.metrics_port router with
    | Some p -> p
    | None -> Alcotest.fail "ops listener did not bind"
  in
  with_fleet ~n:2 ~route:with_ops (fun fleet ->
      let port = ops_port fleet.fl_router in
      ignore (call fleet.fl_front {|{"verb":"ping"}|});
      Alcotest.(check (pair int string)) "healthz" (200, "ok\n") (get port "/healthz");
      Alcotest.(check (pair int string)) "readyz while serving" (200, "ready\n")
        (get port "/readyz");
      let status, scraped = get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      Alcotest.(check bool) "request counter exposed" true
        (String.split_on_char '\n' scraped
        |> List.exists (String.starts_with ~prefix:"adcopt_route_requests_total "));
      (* hold a forward in flight so the drain stays open *)
      let slow =
        Thread.create
          (fun () -> ignore (call fleet.fl_front {|{"verb":"ping","delay_ms":700}|}))
          ()
      in
      Thread.delay 0.15;
      Router.stop fleet.fl_router;
      Thread.delay 0.05;
      Alcotest.(check (pair int string)) "readyz during drain" (503, "draining\n")
        (get port "/readyz");
      Thread.join slow);
  (* a fleet that never came up: the first failed forward marks every
     backend down and readiness follows *)
  let dir = tmp_dir "adcopt-cluster-ops" in
  let front = Filename.concat dir "front.sock" in
  let router =
    Router.create
      (with_ops
         {
           Router.default_config with
           Router.backends = [ Filename.concat dir "gone0.sock"; Filename.concat dir "gone1.sock" ];
           socket_path = Some front;
           probe_period_s = 0.0;
         })
  in
  let thread = Thread.create Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Thread.join thread)
    (fun () ->
      let port = ops_port router in
      let resp = call front {|{"verb":"optimize","k":10,"deadline_ms":2000}|} in
      Alcotest.(check bool) "forward failed" true
        (member_exn "error" resp = Json.String "backend_unavailable");
      Alcotest.(check (pair int string)) "readyz with no backend up"
        (503, "no healthy backends\n") (get port "/readyz"))

(* a bad listen address is a typed refusal, and whatever create had
   already bound is released: no descriptor, no socket file *)
let test_listen_errors () =
  let dir = tmp_dir "adcopt-listen" in
  let sock = Filename.concat dir "front.sock" in
  let refusal what create =
    match create () with
    | exception Transport.Listen_failed e -> e
    | _ -> Alcotest.failf "%s: came up on a bad address" what
  in
  let check_gone what =
    Alcotest.(check bool) (what ^ ": socket file removed") false (Sys.file_exists sock)
  in
  (match
     refusal "serve" (fun () ->
         Server.create
           {
             Server.default_config with
             Server.socket_path = Some sock;
             metrics_addr = Some ("no_such_host..", 0);
           })
   with
  | Transport.Bad_host "no_such_host.." -> ()
  | e -> Alcotest.failf "serve: %s" (Transport.error_message e));
  check_gone "serve";
  (match
     refusal "route" (fun () ->
         Router.create
           {
             Router.default_config with
             Router.backends = [ "b.sock" ];
             socket_path = Some sock;
             tcp = Some ("bad host", 0);
           })
   with
  | Transport.Bad_host "bad host" -> ()
  | e -> Alcotest.failf "route: %s" (Transport.error_message e));
  check_gone "route";
  (* a taken port fails at bind, after the unix socket was bound *)
  let busy = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close busy)
    (fun () ->
      Unix.bind busy (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen busy 1;
      let port =
        match Unix.getsockname busy with Unix.ADDR_INET (_, p) -> p | _ -> 0
      in
      (match
         refusal "serve on a taken port" (fun () ->
             Server.create
               {
                 Server.default_config with
                 Server.socket_path = Some sock;
                 tcp = Some ("127.0.0.1", port);
               })
       with
      | Transport.Bind (_, Unix.EADDRINUSE) -> ()
      | e -> Alcotest.failf "taken port: %s" (Transport.error_message e));
      check_gone "taken port")

(* ------------------------------------------------------------------ *)

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let prop p = QCheck_alcotest.to_alcotest p

let () =
  (* backends are killed mid-test on purpose; a write into one of their
     dead sockets must fail with EPIPE, not kill the runner *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          quick "create, dedup, occupancy" test_ring_basic;
          quick "successors and replicas" test_ring_successors;
          prop prop_deterministic;
          prop prop_monotone;
          prop prop_distribution;
        ] );
      ( "registry",
        [ quick "health marks and transitions" test_health;
          quick "donor index" test_donor ] );
      ( "keys",
        [ quick "verb x card key table" test_key_table;
          prop prop_place_is_store ] );
      ( "router",
        [
          quick "ping and single-verb routing" test_cluster_ping_and_single_verbs;
          quick "routed == solo daemon (bytes)" test_cluster_byte_identity;
          quick "batch fans per owner (bytes)" test_cluster_batch_fan;
          quick "pareto fans per cell (bytes)" test_cluster_pareto_fan;
          quick "kill 1 of 3 re-routes mid-batch" test_cluster_kill_backend_reroutes;
          quick "whole ring down is typed" test_cluster_whole_ring_down;
          quick "replication serves cross-node hits" test_cluster_replication_failover;
          slow "donation warm-starts dependent jobs" test_cluster_donation;
          quick "stats aggregate across the fleet" test_cluster_stats_aggregation;
          quick "shutdown propagates the drain" test_cluster_shutdown_propagates;
          quick "ops plane: healthz, readyz flips, metrics" test_router_ops_plane;
          quick "no batch payload under a cell's optimize key" test_cluster_batch_not_replicated_as_optimize;
        ] );
      ("listeners", [ quick "bad address is typed, nothing left bound" test_listen_errors ]);
    ]
