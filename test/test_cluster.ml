(* Tests for the sharded synthesis cluster: the pure consistent-hash
   ring (deterministic placement, monotone remapping on backend loss,
   distribution bounds — the QCheck properties), the health registry,
   and the router end to end over in-process fleets (routed answers
   byte-identical to a single daemon, kill-one-backend re-route mid
   batch, failover recompute on the ring successors, the bounded
   fan-out, and cluster-wide stats aggregation). *)

module Json = Adc_json.Json
module Protocol = Adc_serve.Protocol
module Server = Adc_serve.Server
module Client = Adc_serve.Client
module Ring = Adc_cluster.Ring
module Health = Adc_cluster.Health
module Router = Adc_cluster.Router
module Store = Adc_serve.Store
module Transport = Adc_serve.Transport
module Http = Adc_serve.Http

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
    (Some (List.hd succ)) (Ring.lookup r "some-key")

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

let start_fleet ?(n = 3) ?(route = Fun.id) () =
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

let with_fleet ?n ?route f =
  let fleet = start_fleet ?n ?route () in
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

(* a standalone daemon, the byte reference for routed answers *)
let with_solo f =
  let dir = tmp_dir "adcopt-cluster-solo" in
  let sock = Filename.concat dir "solo.sock" in
  let srv =
    Server.create { Server.default_config with Server.socket_path = Some sock }
  in
  let thread = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join thread)
    (fun () -> f sock)

let test_cluster_ping_and_single_verbs () =
  with_fleet ~n:3 (fun fleet ->
      let resp = call fleet.fl_front {|{"id":1,"verb":"ping"}|} in
      Alcotest.(check bool) "ping ok" true
        (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool) "id echoed" true
        (member_exn "id" resp = Json.Int 1);
      let resp = call fleet.fl_front {|{"verb":"enumerate","k":10}|} in
      Alcotest.(check bool) "enumerate routed" true
        (member_exn "ok" resp = Json.Bool true);
      (* the retired warm-start donation and store replication verbs get
         the daemon's typed answer: unparseable, never forwarded *)
      List.iter
        (fun line ->
          let resp = call fleet.fl_front line in
          Alcotest.(check bool) (line ^ " is bad_request") true
            (member_exn "ok" resp = Json.Bool false
            && member_exn "error" resp = Json.String "bad_request");
          match member_exn "message" resp with
          | Json.String m when String.starts_with ~prefix:"unknown verb" m -> ()
          | m -> Alcotest.failf "%s: message %s" line (Json.to_string m))
        [
          {|{"verb":"job-put","key":"job-1","payload":{}}|};
          {|{"verb":"job-get","key":"job-2"}|};
          {|{"verb":"store-put","key":"entry-1","digest":"00","payload":{}}|};
          {|{"verb":"store-get","key":"entry-2"}|};
        ])

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
      with_solo (fun sock ->
          let solo = call sock req in
          Alcotest.(check string) "routed bytes == solo daemon bytes"
            (Json.to_string (member_exn "result" solo))
            (Json.to_string (member_exn "result" cold))))

(* a routed batch equals the solo daemon's, also when it names a
   resolution twice: one cell per distinct k, its run repeated *)
let test_cluster_batch_fan () =
  with_fleet ~n:3 (fun fleet ->
      with_solo (fun sock ->
          List.iter
            (fun req ->
              let routed = call fleet.fl_front req in
              Alcotest.(check bool) "batch ok" true
                (member_exn "ok" routed = Json.Bool true);
              let solo = call sock req in
              Alcotest.(check string) (req ^ ": routed bytes == solo bytes")
                (Json.to_string (member_exn "result" solo))
                (Json.to_string (member_exn "result" routed)))
            [
              {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|};
              {|{"verb":"batch","ks":[10,12,10],"fs_mhz":80}|};
            ]))

let test_cluster_pareto_fan () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"pareto","ks":[10,12],"fs_list":[40,80]}|} in
      let routed_lines, routed_final = call_stream fleet.fl_front req in
      Alcotest.(check bool) "pareto ok" true
        (member_exn "ok" routed_final = Json.Bool true);
      (match Json.member_path "result.grid" routed_final with
      | Some (Json.List cells) ->
        Alcotest.(check int) "2 x 2 grid" 4 (List.length cells)
      | _ -> Alcotest.fail "summary lacks its grid");
      with_solo (fun sock ->
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

(* a batch or pareto a daemon would refuse is refused by the router
   itself, in the daemon's envelope, and reaches no backend *)
let test_cluster_refuses_unplannable () =
  with_fleet ~n:2 (fun fleet ->
      with_solo (fun sock ->
          let requests () =
            List.map (fun (_, srv, _) -> Server.requests srv) fleet.fl_backends
          in
          List.iter
            (fun req ->
              let before = requests () in
              let routed = call fleet.fl_front req in
              Alcotest.(check bool) (req ^ ": bad_request") true
                (member_exn "error" routed = Json.String "bad_request");
              Alcotest.(check string) (req ^ ": the daemon's envelope")
                (Json.to_string (call sock req))
                (Json.to_string routed);
              Alcotest.(check (list int)) (req ^ ": no backend asked") before
                (requests ()))
            [
              {|{"id":1,"verb":"batch","ks":[]}|};
              {|{"id":2,"verb":"batch","ks":[3]}|};
              {|{"id":3,"verb":"pareto","ks":[10],"fs_list":[]}|};
            ]))

(* the router's placement: its ring over the fleet's backend sockets *)
let fleet_ring fleet =
  Ring.create ~vnodes:Router.default_config.Router.vnodes
    (List.map (fun (s, _, _) -> s) fleet.fl_backends)

let place_of_line line =
  match (Protocol.key_of_request (parse_exn line)).Protocol.place with
  | Some key -> key
  | None -> Alcotest.failf "no placement key: %s" line

let kill_backends fleet ~keep =
  List.iter
    (fun (sock, srv, thread) ->
      if not (keep sock) then begin
        Server.stop srv;
        Thread.join thread
      end)
    fleet.fl_backends

(* kill 1 of 3 backends, the owner of one of a batch's cells, then run
   the batch: it must complete via re-route, byte-identically. Socket
   paths, hence placement, differ from run to run, so the victim is
   picked on the ring rather than by index *)
let test_cluster_kill_backend_reroutes () =
  with_fleet ~n:3 (fun fleet ->
      let req = {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|} in
      let victim_sock =
        Ring.lookup (fleet_ring fleet)
          (place_of_line {|{"verb":"optimize","k":10,"fs_mhz":80}|})
      in
      let before = call fleet.fl_front req in
      (* stop the victim the hard way: no drain announcement reaches the
         router, so the failure is discovered at forward time *)
      let victim, vthread =
        match List.find_opt (fun (s, _, _) -> Some s = victim_sock) fleet.fl_backends with
        | Some (_, srv, thread) -> (srv, thread)
        | None -> Alcotest.fail "precondition: a backend owns the k=10 cell"
      in
      Server.stop victim;
      Thread.join vthread;
      let after = call fleet.fl_front req in
      Alcotest.(check bool) "batch survives the kill" true
        (member_exn "ok" after = Json.Bool true);
      Alcotest.(check string) "re-routed bytes unchanged"
        (Json.to_string (member_exn "result" before))
        (Json.to_string (member_exn "result" after));
      Alcotest.(check bool) "re-routes counted" true
        (Router.reroutes fleet.fl_router > 0))

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

(* failover recomputes: once every backend but one is dead, the survivor
   answers the keys it never owned by computing them afresh, with the
   bytes their dead owners answered cold *)
let test_cluster_failover_recomputes () =
  with_fleet ~n:3 (fun fleet ->
      let ring = fleet_ring fleet in
      let survivor, _, _ = List.hd fleet.fl_backends in
      let reqs =
        List.init 9 (fun i ->
            Printf.sprintf {|{"verb":"optimize","k":%d,"fs_mhz":80}|} (8 + i))
        |> List.filter (fun r ->
               Ring.lookup ring (place_of_line r) <> Some survivor)
      in
      Alcotest.(check bool) "some keys are owned elsewhere" true (reqs <> []);
      let cold = List.map (fun r -> call fleet.fl_front r) reqs in
      kill_backends fleet ~keep:(fun sock -> sock = survivor);
      List.iter2
        (fun req cold_resp ->
          let resp = call fleet.fl_front req in
          Alcotest.(check bool) "survivor answers" true
            (member_exn "ok" resp = Json.Bool true);
          Alcotest.(check bool) "recomputed, not a copy" true
            (member_exn "cached" resp = Json.Bool false);
          Alcotest.(check string) "recomputed bytes == cold bytes"
            (Json.to_string (member_exn "result" cold_resp))
            (Json.to_string (member_exn "result" resp)))
        reqs cold;
      Alcotest.(check bool) "re-routes counted" true
        (Router.reroutes fleet.fl_router > 0))

(* a forward walks the whole ring: with a key's owner and its first two
   successors dead, the fourth backend still answers *)
let test_cluster_forward_walks_whole_ring () =
  with_fleet ~n:4 (fun fleet ->
      let req = {|{"verb":"optimize","k":10,"fs_mhz":80}|} in
      let order = Ring.successors (fleet_ring fleet) (place_of_line req) in
      let last = List.nth order 3 in
      kill_backends fleet ~keep:(fun sock -> sock = last);
      let resp = call fleet.fl_front req in
      Alcotest.(check bool) "fourth backend answers" true
        (member_exn "ok" resp = Json.Bool true);
      Alcotest.(check bool) "re-routes counted" true
        (Router.reroutes fleet.fl_router > 0);
      Alcotest.(check int) "three failed attempts before it" 3
        (Router.retries_total fleet.fl_router))

(* the store keys a backend's directory holds, read from each entry's
   header line *)
let stored_keys dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name -> Filename.check_suffix name ".json")
  |> List.filter_map (fun name ->
         let header =
           In_channel.with_open_bin (Filename.concat dir name)
             In_channel.input_line
         in
         match Option.map Json.parse header with
         | Some header -> (
           match Json.member "key" header with
           | Some (Json.String key) -> Some key
           | _ -> None)
         | None -> None)

(* a routed batch stores each cell under its solo optimize key, on the
   cell's ring owner, and no batch-keyed entry anywhere; a routed
   optimize of each cell is then a store hit with the batch's bytes *)
let test_cluster_batch_cells_stored_as_optimize () =
  with_fleet ~n:3 (fun fleet ->
      let ks = [ 10; 11; 12; 13 ] in
      let optimize_req k =
        Printf.sprintf {|{"verb":"optimize","k":%d,"fs_mhz":80}|} k
      in
      let batch =
        call fleet.fl_front {|{"verb":"batch","ks":[10,11,12,13],"fs_mhz":80}|}
      in
      let runs =
        match Json.member_path "result.runs" batch with
        | Some (Json.List runs) -> runs
        | _ -> Alcotest.failf "batch failed: %s" (Json.to_string batch)
      in
      let ring = fleet_ring fleet in
      let store_dir sock =
        match
          List.find_index (fun (s, _, _) -> s = sock) fleet.fl_backends
        with
        | Some i -> Filename.concat fleet.fl_dir (Printf.sprintf "store%d" i)
        | None -> Alcotest.failf "no backend %s" sock
      in
      List.iter
        (fun k ->
          let line = optimize_req k in
          let key =
            match (Protocol.key_of_request (parse_exn line)).Protocol.store with
            | Some key -> key
            | None -> Alcotest.failf "no store key: %s" line
          in
          let owner =
            match Ring.lookup ring (place_of_line line) with
            | Some owner -> owner
            | None -> Alcotest.fail "empty ring"
          in
          match Store.find (Store.open_dir (store_dir owner)) ~key with
          | None -> Alcotest.failf "k=%d: its owner stores no optimize entry" k
          | Some payload ->
            let payload = Json.parse payload in
            Alcotest.(check bool)
              (Printf.sprintf "k=%d: an optimize payload" k)
              true
              (Json.member "k" payload = Some (Json.Int k)
              && Json.member "runs" payload = None))
        ks;
      let keys =
        List.concat_map
          (fun (sock, _, _) -> stored_keys (store_dir sock))
          fleet.fl_backends
      in
      Alcotest.(check int) "one entry per cell" 4 (List.length keys);
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " is optimize-keyed") true
            (List.nth_opt (String.split_on_char '|' key) 1 = Some "optimize"))
        keys;
      List.iter2
        (fun k run ->
          let resp = call fleet.fl_front (optimize_req k) in
          Alcotest.(check bool)
            (Printf.sprintf "k=%d cached" k)
            true
            (member_exn "cached" resp = Json.Bool true);
          Alcotest.(check string)
            (Printf.sprintf "k=%d bytes == the batch's run" k)
            (Json.to_string run)
            (Json.to_string (member_exn "result" resp)))
        ks runs)

(* the fan-out helper keeps at most [fan_width] calls in flight and
   returns results by index *)
let test_fan_out_bounded () =
  let n = 64 in
  let inflight = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak v =
    let p = Atomic.get peak in
    if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v
  in
  let results =
    Router.parallel_map_array n (fun i ->
        raise_peak (Atomic.fetch_and_add inflight 1 + 1);
        Thread.delay 0.002;
        Atomic.decr inflight;
        i * i)
  in
  Alcotest.(check bool) "width is at least 8" true (Router.fan_width >= 8);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d within the width" (Atomic.get peak))
    true
    (Atomic.get peak >= 1 && Atomic.get peak <= Router.fan_width);
  Alcotest.(check (array int)) "results in index order"
    (Array.init n (fun i -> i * i))
    results;
  Alcotest.(check (array int)) "empty input" [||]
    (Router.parallel_map_array 0 (fun i -> i))

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
          quick "successors in ring order" test_ring_successors;
          prop prop_deterministic;
          prop prop_monotone;
          prop prop_distribution;
        ] );
      ( "registry",
        [ quick "health marks and transitions" test_health ] );
      ( "keys",
        [ quick "verb x card key table" test_key_table;
          prop prop_place_is_store ] );
      ( "router",
        [
          quick "ping and single-verb routing" test_cluster_ping_and_single_verbs;
          quick "routed == solo daemon (bytes)" test_cluster_byte_identity;
          quick "batch fans per cell (bytes)" test_cluster_batch_fan;
          quick "pareto fans per cell (bytes)" test_cluster_pareto_fan;
          quick "kill 1 of 3 re-routes mid-batch" test_cluster_kill_backend_reroutes;
          quick "whole ring down is typed" test_cluster_whole_ring_down;
          quick "failover recomputes on the survivor" test_cluster_failover_recomputes;
          quick "a forward walks the whole ring" test_cluster_forward_walks_whole_ring;
          quick "fan-out width is bounded" test_fan_out_bounded;
          quick "stats aggregate across the fleet" test_cluster_stats_aggregation;
          quick "shutdown propagates the drain" test_cluster_shutdown_propagates;
          quick "ops plane: healthz, readyz flips, metrics" test_router_ops_plane;
          quick "batch cells stored under optimize keys" test_cluster_batch_cells_stored_as_optimize;
          quick "unplannable batch/pareto refused, none forwarded"
            test_cluster_refuses_unplannable;
        ] );
      ("listeners", [ quick "bad address is typed, nothing left bound" test_listen_errors ]);
    ]
