(* Smoke test of the benchmark: every workload at --smoke scale, untraced
   and traced, must be correct and print every metric BENCHMARK.json
   declares, each with its unit; and the open-loop checker
   must count a deliberately corrupted expected payload as a wrong
   answer. Run from the workspace root: dune runtest bench/adcbench. *)

open Harness
module Json = Adc_json.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let ctx ~self ~trace =
  {
    Workloads.seed = 7;
    seconds = 1.0;
    smoke = true;
    self;
    root = Sys.getcwd ();
    obs = (if trace then Adc_obs.in_memory () else Adc_obs.null);
  }

let check_run ~self ~trace ~(declared : Schema.metric list) w =
  let r, _ = Workloads.run (ctx ~self ~trace) ~name:w ~trace in
  if not r.Record.correct then fail "%s (trace %b): %d of %d failed" w trace r.Record.failed r.Record.attempted;
  (* the summary line carries every declared name with its unit *)
  let metrics = Option.get (Json.member "metrics" (Json.parse (Record.summary_line r))) in
  List.iter
    (fun (m : Schema.metric) ->
      match Json.member m.name metrics with
      | Some v when Json.member "unit" v = Some (Json.String m.unit) -> ()
      | _ -> fail "%s: %s not printed with unit %s" w m.name m.unit)
    declared

(* One optimize request whose oracle bytes are flipped must come back
   wrong, and it alone. *)
let corrupted_payload_is_caught ~self =
  let c = ctx ~self ~trace:false in
  let stream = Mix.generate ~card:(Mix.load_card c.Workloads.root) ~seed:3 ~n:40 in
  let target =
    let rec find i = if stream.Mix.requests.(i).Mix.verb = "optimize" then i else find (i + 1) in
    find 0
  in
  let r = stream.Mix.requests.(target) in
  let flipped = Bytes.of_string r.Mix.expect in
  Bytes.set flipped 1 (if Bytes.get flipped 1 = 'x' then 'y' else 'x');
  stream.Mix.requests.(target) <- { r with Mix.expect = Bytes.to_string flipped };
  let dir = Filename.concat "bench" (Filename.concat "adcbench" (Filename.concat "_work" "smoke-corrupt")) in
  Workloads.rm_rf dir;
  Workloads.mkdir_p dir;
  Sys.chdir dir;
  let bad =
    Fun.protect
      ~finally:(fun () ->
        Proc.stop_all ();
        Sys.chdir c.Workloads.root;
        Workloads.rm_rf dir)
      (fun () ->
        let fleet, _ = Workloads.start_fleet ~traced:false ~tag:"corrupt" `Serve in
        let steps, _ = Mix.run_open ~path:fleet.Workloads.front ~stream [ { Mix.rate = 200.0; dur_s = 0.2 } ] in
        List.fold_left (fun a (s : Mix.step_result) -> a + s.wrong) 0 steps)
  in
  if bad <> 1 then fail "a corrupted payload gave %d wrong answers, expected 1" bad

let () =
  let self =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "adcbench.exe"
  in
  let schema = Schema.load Schema.file in
  List.iter
    (fun w ->
      check_run ~self ~trace:false ~declared:schema.end_to_end w;
      check_run ~self ~trace:true ~declared:schema.per_layer w)
    schema.workloads;
  corrupted_payload_is_caught ~self;
  print_endline "smoke: ok"
