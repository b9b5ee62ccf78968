module Sink = Adc_obs.Sink

(* ------------------------------------------------------------------ *)
(* attribute helpers *)

let attr name (e : Sink.event) = List.assoc_opt name e.Sink.attrs

let attr_int name e =
  match attr name e with Some (Sink.Int n) -> Some n | _ -> None

let attr_bool name e =
  match attr name e with Some (Sink.Bool b) -> Some b | _ -> None

let attr_string name e =
  match attr name e with Some (Sink.String s) -> Some s | _ -> None

let end_ns (e : Sink.event) = Int64.add e.Sink.start_ns e.Sink.dur_ns

(* ------------------------------------------------------------------ *)
(* span tree *)

type node = { event : Sink.event; mutable children : node list }

type tree = { roots : node list; events : Sink.event list; orphans : int }

(* a parent id that never appears in the trace (e.g. the parent's line
   was the truncated tail) demotes the span to a root rather than
   losing it *)
let tree_of_events events =
  let nodes = Hashtbl.create 256 in
  List.iter
    (fun (e : Sink.event) ->
      Hashtbl.replace nodes e.Sink.id { event = e; children = [] })
    events;
  let roots = ref [] and orphans = ref 0 in
  List.iter
    (fun (e : Sink.event) ->
      let n = Hashtbl.find nodes e.Sink.id in
      match e.Sink.parent with
      | None -> roots := n :: !roots
      | Some p -> (
        match Hashtbl.find_opt nodes p with
        | Some pn -> pn.children <- n :: pn.children
        | None ->
          incr orphans;
          roots := n :: !roots))
    events;
  let by_start a b = Int64.compare a.event.Sink.start_ns b.event.Sink.start_ns in
  let rec sort n =
    n.children <- List.sort by_start n.children;
    List.iter sort n.children
  in
  let roots = List.sort by_start !roots in
  List.iter sort roots;
  { roots; events; orphans = !orphans }

let self_ns n =
  let child_total =
    List.fold_left
      (fun acc c -> Int64.add acc c.event.Sink.dur_ns)
      0L n.children
  in
  Int64.max 0L (Int64.sub n.event.Sink.dur_ns child_total)

(* ------------------------------------------------------------------ *)
(* per-name self/total table *)

type name_row = {
  name : string;
  count : int;
  total_ns : int64;
  self_total_ns : int64;
  min_ns : int64;
  max_ns : int64;
}

let by_name tree =
  let table : (string, name_row ref) Hashtbl.t = Hashtbl.create 16 in
  let rec visit n =
    let e = n.event in
    let self = self_ns n in
    (match Hashtbl.find_opt table e.Sink.name with
    | Some r ->
      r :=
        {
          !r with
          count = !r.count + 1;
          total_ns = Int64.add !r.total_ns e.Sink.dur_ns;
          self_total_ns = Int64.add !r.self_total_ns self;
          min_ns = Int64.min !r.min_ns e.Sink.dur_ns;
          max_ns = Int64.max !r.max_ns e.Sink.dur_ns;
        }
    | None ->
      Hashtbl.add table e.Sink.name
        (ref
           {
             name = e.Sink.name;
             count = 1;
             total_ns = e.Sink.dur_ns;
             self_total_ns = self;
             min_ns = e.Sink.dur_ns;
             max_ns = e.Sink.dur_ns;
           }));
    List.iter visit n.children
  in
  List.iter visit tree.roots;
  Hashtbl.fold (fun _ r acc -> !r :: acc) table []
  |> List.sort (fun a b ->
         match Int64.compare b.self_total_ns a.self_total_ns with
         | 0 -> String.compare a.name b.name
         | c -> c)

(* ------------------------------------------------------------------ *)
(* critical path *)

type path_step = { depth : int; event : Sink.event; self : int64 }

(* the chain that determined the trace's makespan: from the
   latest-ending root, repeatedly descend into the latest-ending child.
   In a fork-join trace (candidate → job → attempt) this is exactly the
   dependency chain the run could not have finished without. *)
let critical_path tree =
  let latest (candidates : node list) =
    match candidates with
    | [] -> None
    | ns ->
      Some
        (List.fold_left
           (fun (best : node) (n : node) ->
             if end_ns n.event > end_ns best.event then n else best)
           (List.hd ns) (List.tl ns))
  in
  let rec walk depth (n : node) acc =
    let acc = { depth; event = n.event; self = self_ns n } :: acc in
    match latest n.children with
    | None -> acc
    | Some c -> walk (depth + 1) c acc
  in
  match latest tree.roots with
  | None -> []
  | Some root -> List.rev (walk 0 root [])

(* ------------------------------------------------------------------ *)
(* job totals and reconciliation against the run record *)

type job_totals = {
  jobs : int;
  evaluations : int;
  cold : int;
  warm : int;
  trials : int;
}

let job_totals events =
  List.fold_left
    (fun acc (e : Sink.event) ->
      match e.Sink.name with
      | "optimize.job" ->
        (* equation-path job spans carry no [warm] attr and count in
           neither bucket — the run record keeps cold = warm = 0 there *)
        let warm = attr_bool "warm" e in
        {
          acc with
          jobs = acc.jobs + 1;
          evaluations =
            acc.evaluations + Option.value ~default:0 (attr_int "evaluations" e);
          cold = (if warm = Some false then acc.cold + 1 else acc.cold);
          warm = (if warm = Some true then acc.warm + 1 else acc.warm);
        }
      | "montecarlo.trial" -> { acc with trials = acc.trials + 1 }
      | _ -> acc)
    { jobs = 0; evaluations = 0; cold = 0; warm = 0; trials = 0 }
    events

type memo_summary = { lookups : int; hits : int }

let memo_summary events =
  List.fold_left
    (fun acc (e : Sink.event) ->
      if e.Sink.name = "memo.lookup" then
        {
          lookups = acc.lookups + 1;
          hits = (if attr_bool "hit" e = Some true then acc.hits + 1 else acc.hits);
        }
      else acc)
    { lookups = 0; hits = 0 }
    events

type check = { label : string; expected : int; actual : int }

let check_ok c = c.expected = c.actual

(* compare the per-job span decomposition of each optimize.run against
   the summary attributes the run recorded about itself, and each hybrid
   optimize.batch's fused work list against its job spans; a mismatch
   means the scheduler lost or duplicated work *)
let reconcile events =
  let jobs_under (root : Sink.event) =
    List.filter
      (fun (e : Sink.event) ->
        e.Sink.parent = Some root.Sink.id && e.Sink.name = "optimize.job")
      events
  in
  List.concat_map
    (fun (root : Sink.event) ->
      let expect field = Option.value ~default:0 (attr_int field root) in
      match root.Sink.name with
      | "optimize.run" ->
        let t = job_totals (jobs_under root) in
        let prefix = Printf.sprintf "run#%d(k=%d)" root.Sink.id (expect "k") in
        [
          { label = prefix ^ " distinct_jobs"; expected = expect "distinct_jobs";
            actual = t.jobs };
          { label = prefix ^ " synthesis_evaluations";
            expected = expect "synthesis_evaluations"; actual = t.evaluations };
          { label = prefix ^ " cold_jobs"; expected = expect "cold_jobs";
            actual = t.cold };
          { label = prefix ^ " warm_jobs"; expected = expect "warm_jobs";
            actual = t.warm };
        ]
      | "optimize.batch" ->
        (* the batch's job spans decompose the key-deduplicated union,
           one span per distinct synthesis on a fresh runtime (a shared
           runtime's cache hits emit none) *)
        [
          { label =
              Printf.sprintf "batch#%d(specs=%d) distinct_syntheses"
                root.Sink.id (expect "specs");
            expected = expect "distinct_syntheses";
            actual = List.length (jobs_under root) };
        ]
      | _ -> [])
    events

(* ------------------------------------------------------------------ *)
(* per-domain utilization timeline *)

type domain_util = {
  domain : int;
  busy_ns : int64;
  tasks : int;
  timeline : float array;  (* busy fraction per bucket *)
}

type utilization = {
  t0_ns : int64;
  t1_ns : int64;
  per_domain : domain_util list;  (* sorted by domain index *)
}

(* overlap of [s,e) with bucket [b0,b1), as a fraction of the bucket *)
let bucket_overlap ~s ~e ~b0 ~b1 =
  let lo = Int64.to_float (Int64.max s b0) and hi = Int64.to_float (Int64.min e b1) in
  if hi <= lo then 0.0 else (hi -. lo) /. Int64.to_float (Int64.sub b1 b0)

let utilization ?(buckets = 60) events =
  let tasks =
    List.filter (fun (e : Sink.event) -> e.Sink.name = "pool.task") events
  in
  match tasks with
  | [] -> None
  | _ ->
    let t0 =
      List.fold_left
        (fun acc (e : Sink.event) -> Int64.min acc e.Sink.start_ns)
        Int64.max_int tasks
    and t1 =
      List.fold_left (fun acc e -> Int64.max acc (end_ns e)) Int64.min_int tasks
    in
    let span = Int64.max 1L (Int64.sub t1 t0) in
    let domains : (int, Sink.event list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let d = Option.value ~default:0 (attr_int "domain" e) in
        match Hashtbl.find_opt domains d with
        | Some l -> l := e :: !l
        | None -> Hashtbl.add domains d (ref [ e ]))
      tasks;
    let per_domain =
      Hashtbl.fold
        (fun d evs acc ->
          let timeline = Array.make buckets 0.0 in
          let busy = ref 0L in
          List.iter
            (fun (e : Sink.event) ->
              busy := Int64.add !busy e.Sink.dur_ns;
              for i = 0 to buckets - 1 do
                let b0 =
                  Int64.add t0
                    (Int64.div (Int64.mul span (Int64.of_int i))
                       (Int64.of_int buckets))
                and b1 =
                  Int64.add t0
                    (Int64.div
                       (Int64.mul span (Int64.of_int (i + 1)))
                       (Int64.of_int buckets))
                in
                timeline.(i) <-
                  timeline.(i)
                  +. bucket_overlap ~s:e.Sink.start_ns ~e:(end_ns e) ~b0 ~b1
              done)
            !evs;
          Array.iteri (fun i v -> timeline.(i) <- Float.min 1.0 v) timeline;
          { domain = d; busy_ns = !busy; tasks = List.length !evs; timeline }
          :: acc)
        domains []
      |> List.sort (fun a b -> compare a.domain b.domain)
    in
    Some { t0_ns = t0; t1_ns = t1; per_domain }

(* ------------------------------------------------------------------ *)
(* rendering *)

let fmt_ns ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.2f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.2f us" (f /. 1e3)
  else Printf.sprintf "%Ld ns" ns

let shade = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |]

let shade_of frac =
  let n = Array.length shade in
  let i = int_of_float (frac *. float_of_int n) in
  shade.(Stdlib.max 0 (Stdlib.min (n - 1) i))

let render_name_table rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %7s %12s %12s %12s %12s\n" "span" "count" "total"
       "self" "min" "max");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-24s %7d %12s %12s %12s %12s\n" r.name r.count
           (fmt_ns r.total_ns) (fmt_ns r.self_total_ns) (fmt_ns r.min_ns)
           (fmt_ns r.max_ns)))
    rows;
  Buffer.contents b

let render_critical_path steps =
  match steps with
  | [] -> "critical path: (empty trace)\n"
  | { event = root; _ } :: _ ->
    let b = Buffer.create 256 in
    let total = Int64.to_float root.Sink.dur_ns in
    Buffer.add_string b "critical path (latest-ending chain):\n";
    List.iter
      (fun { depth; event = e; self } ->
        let pct =
          if total <= 0.0 then 0.0
          else 100.0 *. Int64.to_float e.Sink.dur_ns /. total
        in
        let label =
          match (attr_string "job" e, attr_string "config" e) with
          | Some j, _ -> Printf.sprintf "%s [%s]" e.Sink.name j
          | None, Some c -> Printf.sprintf "%s [%s]" e.Sink.name c
          | None, None -> e.Sink.name
        in
        Buffer.add_string b
          (Printf.sprintf "  %s%-*s %10s (%4.1f%%)  self %s\n"
             (String.make (2 * depth) ' ')
             (Stdlib.max 1 (34 - (2 * depth)))
             label (fmt_ns e.Sink.dur_ns) pct (fmt_ns self)))
      steps;
    Buffer.contents b

let render_utilization u =
  let b = Buffer.create 512 in
  let wall = Int64.sub u.t1_ns u.t0_ns in
  Buffer.add_string b
    (Printf.sprintf "pool utilization over %s (one row per domain):\n"
       (fmt_ns wall));
  List.iter
    (fun d ->
      let bar = String.init (Array.length d.timeline) (fun i -> shade_of d.timeline.(i)) in
      let pct =
        if wall <= 0L then 0.0
        else 100.0 *. Int64.to_float d.busy_ns /. Int64.to_float wall
      in
      Buffer.add_string b
        (Printf.sprintf "  domain %2d [%s] %5.1f%% busy, %d tasks\n" d.domain bar
           pct d.tasks))
    u.per_domain;
  let total_busy =
    List.fold_left (fun acc d -> Int64.add acc d.busy_ns) 0L u.per_domain
  in
  let n = Stdlib.max 1 (List.length u.per_domain) in
  Buffer.add_string b
    (Printf.sprintf "  overall: %.1f%% of %d domain(s)\n"
       (if wall <= 0L then 0.0
        else
          100.0 *. Int64.to_float total_busy
          /. (Int64.to_float wall *. float_of_int n))
       n);
  Buffer.contents b

let render_summary (load : Trace_reader.load) =
  let events = load.Trace_reader.events in
  let tree = tree_of_events events in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "trace: %d events%s%s\n" (List.length events)
       (if load.Trace_reader.skipped > 0 then
          Printf.sprintf ", %d unparseable line(s) skipped"
            load.Trace_reader.skipped
        else "")
       (if tree.orphans > 0 then
          Printf.sprintf ", %d orphan span(s) promoted to roots" tree.orphans
        else ""));
  Buffer.add_char b '\n';
  Buffer.add_string b (render_name_table (by_name tree));
  let t = job_totals events in
  if t.jobs > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "\njobs: %d total, %d cold / %d warm, %d evaluator calls\n" t.jobs
         t.cold t.warm t.evaluations);
  if t.trials > 0 then
    Buffer.add_string b
      (Printf.sprintf "montecarlo: %d trial(s)\n" t.trials);
  let m = memo_summary events in
  if m.lookups > 0 then
    Buffer.add_string b
      (Printf.sprintf "memo: %d lookups, %d hits (%.1f%% hit rate)\n" m.lookups
         m.hits
         (100.0 *. float_of_int m.hits /. float_of_int m.lookups));
  (match reconcile events with
  | [] -> ()
  | checks ->
    Buffer.add_string b "\nreconciliation (span sums vs run record):\n";
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf "  %-40s expected %8d  from spans %8d  %s\n" c.label
             c.expected c.actual
             (if check_ok c then "ok" else "MISMATCH")))
      checks);
  Buffer.contents b
