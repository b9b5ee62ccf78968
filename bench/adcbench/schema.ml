(* The benchmark's definition, read from BENCHMARK.json at the root of
   the checkout: the workloads, how long a run measures, and every
   declared metric with its unit, direction and bound. The harness
   measures exactly what the file declares, and [compare] judges by it.
   Workload-specific layer numbers the file does not declare are
   [extras] below. *)

module Json = Adc_json.Json

type metric = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  run_seconds : float;
  end_to_end : metric list;  (** reported by untraced runs *)
  per_layer : metric list;  (** reported by traced runs *)
}

let file = "BENCHMARK.json"

let load path =
  let bad what = failwith (Printf.sprintf "%s: %s" path what) in
  let j = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  let list key = match Json.member key j with Some (Json.List l) -> l | _ -> bad ("no " ^ key ^ " list") in
  let str key m = match Json.member key m with Some (Json.String s) -> s | _ -> bad ("an entry lacks " ^ key) in
  let num = function Some (Json.Int n) -> Some (float_of_int n) | Some (Json.Float f) -> Some f | _ -> None in
  let metrics key =
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit = str "unit" m;
          lower_better = str "better" m = "lower";
          bound = num (Json.member "bound" m);
        })
      (list key)
  in
  {
    workloads = List.map (str "name") (list "workloads");
    run_seconds = (match num (Json.member "run_seconds" j) with Some s -> s | None -> bad "no run_seconds");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* Workload-specific layer numbers of a traced run. They are printed and
   written to the results file, not to the summary line, since the
   workloads without the layer cannot measure them. *)
let extras =
  let m name unit better = { name; unit; lower_better = better = `Lower; bound = None } in
  [
    (* daemons, from their own --trace and stats: serve-mix, route-mix, route-hybrid *)
    m "serve.queue_wait_ms.p50" "ms" `Lower;
    m "serve.queue_wait_ms.p99" "ms" `Lower;
    m "serve.service_ms.p50" "ms" `Lower;
    m "serve.service_ms.p99" "ms" `Lower;
    m "serve.wire_ms.p50" "ms" `Lower;
    m "serve.overloaded" "count" `Lower;
    m "store.hit_ratio" "ratio" `Higher;
    (* the rate ladder: serve-mix and route-mix *)
    m "mix.p50_ms.lo" "ms" `Lower;
    m "mix.p99_ms.lo" "ms" `Lower;
    m "mix.p50_ms.mid" "ms" `Lower;
    m "mix.p99_ms.mid" "ms" `Lower;
    m "ladder.max_rate_rps" "1/s" `Higher;
    m "ladder.p50_ms.top" "ms" `Lower;
    m "ladder.p99_ms.top" "ms" `Lower;
    m "gen.lag_ms.p99" "ms" `Lower;
    (* the router: route-mix and route-hybrid *)
    m "route.overhead_ms.p50" "ms" `Lower;
    m "route.fanout_subrequests" "count" `Lower;
    m "route.replica_offers" "count" `Lower;
    m "route.replica_hits" "count" `Higher;
    m "route.donations" "count" `Higher;
    m "route.reroutes" "count" `Lower;
    m "route.retries" "count" `Lower;
    m "cluster.job_hits" "count" `Higher;
    m "cluster.store_hits" "count" `Higher;
  ]
