type optimum_row = {
  k : int;
  config : Config.t;
  p_total : float;
  runner_up : Config.t option;
  margin : float;
}

type chart = {
  rows : optimum_row list;
  first_stage_rule : (int * int) list;
  last_stage_always_two : bool;
  monotone_non_increasing : bool;
  all_valid : bool;
  summary : string list;
}

let row_of_run (run : Optimize.run) =
  let best = run.Optimize.optimum in
  let runner_up, margin =
    match run.Optimize.candidates with
    | _ :: second :: _ ->
      ( Some second.Optimize.config,
        (second.Optimize.p_total -. best.Optimize.p_total)
        /. Float.max best.Optimize.p_total 1e-30 )
    | [ _ ] | [] -> (None, 0.0)
  in
  {
    k = run.Optimize.spec.Spec.k;
    config = best.Optimize.config;
    p_total = best.Optimize.p_total;
    runner_up;
    margin;
  }

let last_element c =
  match List.rev c with [] -> None | last :: _ -> Some last

let first_element c = match c with [] -> None | m :: _ -> Some m

(* Total on any row list, including []: a fully cancelled sweep (the
   [?cancel] path can skip every resolution) must yield an empty chart
   with an explicit note, never an exception. The rule booleans are
   [false] on an empty chart — no rule was observed — and the vacuously
   true summary lines are suppressed rather than claimed. *)
let derive rows =
  let first_stage_rule =
    List.filter_map
      (fun r -> Option.map (fun m1 -> (r.k, m1)) (first_element r.config))
      rows
  in
  let non_empty = rows <> [] in
  let last_stage_always_two =
    non_empty
    && List.for_all (fun r -> last_element r.config = Some 2) rows
  in
  (* the chart's headline invariant is the pairwise m_i >= m_(i+1)
     property its name claims; full validity (m-bounds included) is a
     separate assertion reported alongside, not conflated with it *)
  let monotone_non_increasing =
    non_empty && List.for_all (fun r -> Config.is_non_increasing r.config) rows
  in
  let all_valid =
    non_empty && List.for_all (fun r -> Config.is_valid r.config) rows
  in
  let threshold_for m1 =
    first_stage_rule
    |> List.filter (fun (_, m) -> m >= m1)
    |> List.map fst
    |> function
    | [] -> None
    | ks -> Some (List.fold_left Stdlib.min max_int ks)
  in
  let summary =
    if not non_empty then
      [ "no completed resolutions: the chart is empty (sweep cancelled \
         before any optimum was found)" ]
    else
      List.concat
        [
          (match threshold_for 4 with
          | Some k -> [ Printf.sprintf "K >= %d  ->  4-bit first stage" k ]
          | None -> []);
          (match threshold_for 3 with
          | Some k -> [ Printf.sprintf "K >= %d  ->  first stage of at least 3 bits" k ]
          | None -> []);
          (if last_stage_always_two then
             [ "last enumerated stage is always 2 bits" ]
           else []);
          (if monotone_non_increasing then
             [ "optimal resolutions are non-increasing down the pipeline (m_i >= m_i+1)" ]
           else []);
          (if not all_valid then
             [ "warning: some optimum violates the m-bounds (2 <= m_i <= 4)" ]
           else []);
        ]
  in
  {
    rows;
    first_stage_rule;
    last_stage_always_two;
    monotone_non_increasing;
    all_valid;
    summary;
  }

(* a deadline-truncated run is a best-so-far guess, not an optimum: the
   chart keeps only the runs that completed *)
let of_runs runs =
  runs
  |> List.filter (fun (r : Optimize.run) -> not r.Optimize.truncated)
  |> List.map row_of_run |> derive

let sweep ?(mode = `Equation) ?(seed = 11) ?attempts ?budget ?jobs ?obs ?cancel
    ?shared ~k_values make_spec =
  match List.map (fun k -> make_spec ~k) k_values with
  | [] -> derive []
  | specs ->
    of_runs
      (Optimize.run_batch ~mode ~seed ?attempts ?budget ?jobs ?obs ?cancel
         ?shared specs)
        .Optimize.batch_runs

let render chart =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Optimum candidate enumeration (Fig. 3)\n";
  Buffer.add_string buf "  K   optimum      total power   margin to runner-up\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-3d %-12s %-13s %+.1f%%%s\n" r.k
           (Config.to_string r.config)
           (Adc_numerics.Units.format_power r.p_total)
           (100.0 *. r.margin)
           (match r.runner_up with
           | Some c -> Printf.sprintf "  (vs %s)" (Config.to_string c)
           | None -> "")))
    chart.rows;
  Buffer.add_string buf "Derived rules:\n";
  List.iter (fun line -> Buffer.add_string buf ("  - " ^ line ^ "\n")) chart.summary;
  Buffer.contents buf
