(* One run's outcome, its JSON form (BENCH_RESULTS.json and the
   one-line summary), and [compare] between two result sets. *)

module Json = Adc_json.Json

type metric = { name : string; value : float; unit : string }

type run = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** the summary line's: end-to-end or per-layer *)
  extras : metric list;  (** workload-specific layer numbers of a traced run *)
}

let metric (name, value, unit) = { name; value; unit }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

(* the summary line, last on stdout: exactly these four keys *)
let summary_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json r.metrics);
       ])

let to_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool r.trace);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r.metrics);
      ("extras", metrics_json r.extras);
    ]

let num = function Json.Int n -> float_of_int n | Json.Float f -> f | _ -> nan

let of_json j =
  let get k = Json.member k j in
  let metrics key =
    match get key with
    | Some (Json.Obj fields) ->
      List.map
        (fun (name, m) ->
          {
            name;
            value = Option.fold ~none:nan ~some:num (Json.member "value" m);
            unit = (match Json.member "unit" m with Some (Json.String u) -> u | _ -> "");
          })
        fields
    | _ -> []
  in
  {
    workload = (match get "workload" with Some (Json.String w) -> w | _ -> "?");
    seed = (match get "seed" with Some (Json.Int s) -> s | _ -> 0);
    trace = get "trace" = Some (Json.Bool true);
    correct = get "correct" = Some (Json.Bool true);
    attempted = (match get "attempted" with Some (Json.Int n) -> n | _ -> 0);
    failed = (match get "failed" with Some (Json.Int n) -> n | _ -> 0);
    metrics = metrics "metrics";
    extras = metrics "extras";
  }

let read_file path =
  let j = Json.parse (In_channel.with_open_text path In_channel.input_all) in
  match Json.member "runs" j with
  | Some (Json.List runs) -> List.map of_json runs
  | _ -> failwith (path ^ ": no \"runs\" list")

(* Adds [runs] after those already in [path], so that runs made one
   invocation at a time, alternating between two commits, build up one
   result set per commit in the order they ran. *)
let append_file path runs =
  let before = if Sys.file_exists path then read_file path else [] in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("runs", Json.List (List.map to_json (before @ runs))) ]));
      output_char oc '\n')

let print_table r =
  Printf.printf "%s  seed %d  %s  attempted %d  failed %d  %s\n" r.workload r.seed
    (if r.trace then "traced" else "untraced")
    r.attempted r.failed
    (if r.correct then "correct" else "INCORRECT");
  List.iter (fun m -> Printf.printf "  %-36s %14.6g %s\n" m.name m.value m.unit) r.metrics;
  List.iter (fun m -> Printf.printf "  (extra) %-28s %14.6g %s\n" m.name m.value m.unit) r.extras

(* ------------------------------------------------------------------ *)
(* compare: paired runs, judged for a small and noisy host.
   Each side's runs of a workload are paired in file order, so run the
   two sides alternately. A metric with a bound gets the first verdict
   that holds: [worse] when B's median is worse than A's by more than
   the bound; [better] when, over at least ten pairs, B wins nine tenths
   of them and the medians differ by more than A's quartile spread;
   [unresolved] when A's spread is wider than the bound, so the runs
   cannot show that nothing changed; [same]. A gain does not count on a
   workload where B failed more runs or operations than A: its [better]
   reads [withheld]. Metrics without a bound get no verdict. *)

let verdict ~(m : Schema.metric) ~parent ~change =
  let q1, q3 = Stats.quartiles parent in
  let beats x y = if m.lower_better then x < y else x > y in
  let n = Stdlib.min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let won = List.length (List.filter (fun (p, c) -> beats c p) (List.combine (first parent) (first change))) in
  let mp = Stats.median parent and mc = Stats.median change in
  let v =
    match m.bound with
    | None -> `None
    | Some bound ->
      let worse_by = (if m.lower_better then mc -. mp else mp -. mc) /. Float.abs mp in
      if worse_by > bound then `Worse
      else if n >= 10 && 10 * won >= 9 * n && Float.abs (mc -. mp) > q3 -. q1 then `Better
      else if (q3 -. q1) /. Float.abs mp > bound then `Unresolved
      else `Same
  in
  (won, n, v)

(* failed runs and failed operations of one workload *)
let failures runs w =
  let mine = List.filter (fun r -> r.workload = w) runs in
  (List.length (List.filter (fun r -> not r.correct) mine), List.fold_left (fun a r -> a + r.failed) 0 mine)

(* Prints one row per workload and metric. Returns how many findings
   count against B: [worse] verdicts, and workloads where B failed more
   than A. *)
let compare_files ~(schema : Schema.t) a b =
  let metrics = schema.end_to_end @ schema.per_layer @ Schema.extras in
  let ra = read_file a and rb = read_file b in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb)) in
  let values runs w name =
    List.filter_map
      (fun r ->
        if r.workload <> w then None
        else
          List.find_opt (fun m -> m.name = name) (r.metrics @ r.extras)
          |> Option.map (fun m -> m.value))
      runs
  in
  Printf.printf "%-13s %-34s %11s %23s %11s %23s %7s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "B won" "verdict";
  let against = ref 0 in
  List.iter
    (fun w ->
      let (fa_runs, fa_ops) = failures ra w and (fb_runs, fb_ops) = failures rb w in
      let b_failed_more = fb_runs > fa_runs || fb_ops > fa_ops in
      if b_failed_more then incr against;
      if fa_runs + fa_ops + fb_runs + fb_ops > 0 then
        Printf.printf "%-13s failed runs / operations: A %d / %d, B %d / %d%s\n" w fa_runs fa_ops fb_runs
          fb_ops (if b_failed_more then "  (B failed more)" else "");
      List.iter
        (fun (m : Schema.metric) ->
          let pa = values ra w m.name and pb = values rb w m.name in
          if pa <> [] && pb <> [] then begin
            let won, n, v = verdict ~m ~parent:pa ~change:pb in
            if v = `Worse then incr against;
            let a1, a3 = Stats.quartiles pa and b1, b3 = Stats.quartiles pb in
            Printf.printf "%-13s %-34s %11.5g [%10.4g, %10.4g] %11.5g [%10.4g, %10.4g] %3d/%-3d  %s\n" w
              m.name (Stats.median pa) a1 a3 (Stats.median pb) b1 b3 won n
              (match v with
              | `Worse -> "worse"
              | `Better when b_failed_more -> "withheld"
              | `Better -> "better"
              | `Unresolved -> "unresolved"
              | `Same -> "same"
              | `None -> "-")
          end)
        metrics)
    workloads;
  !against
