(* Tests for the SPICE interop layer: parse→emit→parse→emit round-trip
   stability (one normalization, then a byte-exact fixpoint — property
   and golden-deck), the process cards under share/processes/ (the c025
   card must reproduce the built-in process bit for bit), the typed
   line-numbered error table for malformed decks, and the per-process
   isolation of synthesis fingerprints, store keys and optimize
   payloads. *)

module Spice = Adc_spice
module Netlist = Adc_circuit.Netlist
module Process = Adc_circuit.Process
module Stimulus = Adc_circuit.Stimulus
module Spec = Adc_pipeline.Spec
module Codec = Adc_serve.Codec

(* The process cards live in share/processes/ at the workspace root;
   walk up from the test binary (_build/default/test/...) so the suite
   works from any cwd dune runs it in. *)
let share_dir =
  let rec find dir n =
    let cand = Filename.concat dir (Filename.concat "share" "processes") in
    if Sys.file_exists (Filename.concat cand "c025.sp") || n = 0 then cand
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  find (Filename.dirname Sys.executable_name) 6

let share path = Filename.concat share_dir path

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let parse_exn text =
  match Spice.parse text with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse failed: %s" (Spice.error_to_string e)

(* ------------------------------------------------------------------ *)
(* round-trip: property *)

(* Build a netlist already in canonical shape (letter-prefixed device
   names, static switches) from a generator seed; emit(parse(emit nl))
   must then equal emit nl byte for byte. *)
let netlist_of_seed (n_nodes, seeds) =
  let nl = Netlist.create Process.c025 in
  let nodes =
    Netlist.ground
    :: List.init n_nodes (fun i -> Netlist.node nl (Printf.sprintf "n%d" i))
  in
  let count = List.length nodes in
  let node i = List.nth nodes (i mod count) in
  List.iteri
    (fun i (kind, v, a, b) ->
      let name k = Printf.sprintf "%c%d" k i in
      (* two-terminal devices want distinct endpoints *)
      let a = node a in
      let b =
        let b = node b in
        if a = b then node (Netlist.node_index a + 1) else b
      in
      match kind mod 7 with
      | 0 -> Netlist.resistor nl (name 'r') a b v
      | 1 -> Netlist.capacitor nl (name 'c') a b v
      | 2 -> Netlist.vsource nl (name 'v') a b (Stimulus.Dc v)
      | 3 ->
        Netlist.vsource nl (name 'v') a b
          (Stimulus.Sine { offset = 0.1; amplitude = v; freq = 1e6; phase = 0.0 })
      | 4 -> Netlist.isource ~ac_mag:1.0 nl (name 'i') a b (Stimulus.Dc v)
      | 5 ->
        Netlist.mosfet nl (name 'm') ~d:a ~g:b ~s:Netlist.ground
          ~b:Netlist.ground Process.Nmos ~w:(v +. 1e-6) ~l:5e-7 ()
      | _ ->
        Netlist.switch nl (name 's') a b ~r_on:(v +. 1.0) ~r_off:1e9
          ~closed_at:(fun _ -> i mod 2 = 0))
    seeds;
  nl

let seed_arbitrary =
  let open QCheck in
  let gen =
    Gen.pair (Gen.int_range 2 6)
      (Gen.list_size (Gen.int_range 1 12)
         (Gen.quad (Gen.int_range 0 20) (Gen.float_range 1e-12 1e4)
            (Gen.int_range 0 40) (Gen.int_range 0 40)))
  in
  make ~print:(fun s -> Spice.emit (netlist_of_seed s)) gen

let roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"emit o parse is the identity on emitted decks"
    seed_arbitrary (fun seed ->
      let nl = netlist_of_seed seed in
      let deck = Spice.emit nl in
      let nl2, _ = parse_exn deck in
      let deck2 = Spice.emit nl2 in
      if deck <> deck2 then
        QCheck.Test.fail_reportf "round-trip diverged:\n%s\n----\n%s" deck deck2
      else true)

(* one normalization then fixpoint, on a deck exercising the whole
   dialect: subckt flattening, continuation lines, comments, suffixes,
   switch state sampling *)
let test_normalize_then_fixpoint () =
  let deck =
    "* messy deck\n\
     .param vdd=3.3\n\
     .subckt divider top bot\n\
     r1 top mid 10k\n\
     r2 mid bot 10k ; lower half\n\
     .ends\n\
     x1 in 0 divider\n\
     cload in 0 2.2u\n\
     vdrive in 0 pulse(0 3.3 0 1n\n\
     + 1n 5n 10n)\n\
     m1 out in 0 0 nch w=1u l=0.25u\n\
     s1 out 0 ron=5.0 roff=1g state=on\n\
     .end\n"
  in
  let nl1, _ = parse_exn deck in
  let once = Spice.emit nl1 in
  let nl2, _ = parse_exn once in
  let twice = Spice.emit nl2 in
  Alcotest.(check string) "fixpoint after one normalization" once twice;
  (* the normalization did what it claims: flattened instance-scoped
     devices/nodes, expanded suffixes, sampled the switch at t = 0 *)
  Alcotest.(check bool) "subckt flattened" true (contains once "rx1.r1 in x1.mid 10000");
  Alcotest.(check bool) "suffix expanded" true (contains once "cload in 0 2.2e-06");
  Alcotest.(check bool) "switch sampled" true (contains once "state=on")

(* internal device names that lack their element letter gain it on emit
   — the one renaming normalization — and the renamed deck re-parses to
   the same bytes *)
let test_letter_prefix_normalization () =
  let nl = Netlist.create Process.c025 in
  let a = Netlist.node nl "in" in
  Netlist.capacitor nl "load" a Netlist.ground 2.2e-6;
  let once = Spice.emit nl in
  Alcotest.(check bool) "letter prefix added" true (contains once "cload in 0");
  let nl2, _ = parse_exn once in
  Alcotest.(check string) "renamed deck is a fixpoint" once (Spice.emit nl2)

(* ------------------------------------------------------------------ *)
(* process cards: golden fixtures *)

let test_c025_card_is_builtin () =
  match Spice.load_process_file (share "c025.sp") with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    Alcotest.(check bool) "c025.sp = Process.c025 exactly" true (p = Process.c025);
    Alcotest.(check bool) "digest collapses to the default" true
      (Spice.nondefault_digest p = None)

let check_card file name vdd l_min nch_vt0 =
  match Spice.load_process_file (share file) with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    Alcotest.(check string) (file ^ " name") name p.Process.name;
    Alcotest.(check (float 0.0)) (file ^ " vdd") vdd p.Process.vdd;
    Alcotest.(check (float 0.0)) (file ^ " l_min") l_min p.Process.l_min;
    Alcotest.(check (float 0.0)) (file ^ " nch vt0") nch_vt0 p.Process.nmos.Process.vt0;
    Alcotest.(check bool) (file ^ " is non-default") true
      (Spice.nondefault_digest p <> None);
    (* the canonical rendering of the card re-parses to the identical
       process, comments and continuation lines notwithstanding *)
    (match Spice.parse_process (Spice.emit_process p) with
    | Error e -> Alcotest.failf "%s reparse: %s" file (Spice.error_to_string e)
    | Ok p2 ->
      Alcotest.(check bool) (file ^ " round-trips bit-exactly") true (p2 = p))

let test_c018_card () = check_card "c018.sp" "synthetic-018um-1p8V" 1.8 0.18e-6 0.45
let test_c060_card () = check_card "c060.sp" "synthetic-060um-5p0V" 5.0 0.6e-6 0.75

let test_card_digests_distinct () =
  let digest file =
    match Spice.load_process_file (share file) with
    | Ok p -> Spice.process_digest p
    | Error msg -> Alcotest.fail msg
  in
  let d25 = digest "c025.sp" and d18 = digest "c018.sp" and d60 = digest "c060.sp" in
  Alcotest.(check bool) "three distinct digests" true
    (d25 <> d18 && d18 <> d60 && d25 <> d60);
  Alcotest.(check string) "c025 digest is the default" Spice.default_digest d25

(* ------------------------------------------------------------------ *)
(* malformed decks: the typed error table *)

let test_error_table () =
  let cases =
    [
      ("r1 a 0 10k\nr1 a 0 10k\n.end\n", 2, "duplicate");
      ("* t\nr1 a 0 wat\n.end\n", 2, "not a number");
      ("* t\nr1 a 0 -5\n.end\n", 2, "non-positive");
      ("* t\nr1 a\n.end\n", 2, "expected");
      ("* t\nm1 d g s b nosuch w=1u l=1u\n.end\n", 2, "unknown model");
      ("* t\nv1 a 0 pulse(0 1 0)\n.end\n", 2, "pulse takes 7");
      ("* t\n.nonsense 1 2\n.end\n", 2, "unknown directive");
      ("* t\n.param nope=3\n.end\n", 2, "unknown parameter");
      ("* t\n.model nch nmos level=1 zz=1\n.end\n", 2, "unknown parameter");
      ("* t\n.subckt sub a b\nr1 a b 1k\n", 2, "missing its .ends");
      ("* t\n.ends\n.end\n", 2, ".ends without .subckt");
      ("+ orphan continuation\n.end\n", 1, "continuation");
      ("* t\nx1 a b nosub\n.end\n", 2, "unknown .subckt");
      ("* t\ns1 a 0 ron=1 roff=1 state=maybe\n.end\n", 2, "state must be on|off");
      ("* t\nq1 a b c\n.end\n", 2, "unknown element letter");
    ]
  in
  List.iter
    (fun (deck, line, frag) ->
      match Spice.parse deck with
      | Ok _ -> Alcotest.failf "deck %S parsed but should not have" deck
      | Error e ->
        Alcotest.(check int) (Printf.sprintf "%S reports its line" frag) line e.Spice.line;
        if not (contains (String.lowercase_ascii e.Spice.msg) frag) then
          Alcotest.failf "error %S does not mention %S" (Spice.error_to_string e) frag)
    cases

(* a ~1000-device mixed deck (250 RC rungs, one mosfet and one switch
   each, one sine source) is an emit/parse/emit fixpoint: the scale
   check beside the small property decks *)
let test_large_deck_fixpoint () =
  let sections = 250 in
  let nl = Netlist.create Process.c025 in
  let nodes =
    Array.init (sections + 1) (fun i -> Netlist.node nl (Printf.sprintf "n%d" i))
  in
  for i = 0 to sections - 1 do
    Netlist.resistor nl (Printf.sprintf "r%d" i) nodes.(i) nodes.(i + 1) 100.0;
    Netlist.capacitor nl (Printf.sprintf "c%d" i) nodes.(i + 1) Netlist.ground 1e-12;
    Netlist.mosfet nl (Printf.sprintf "m%d" i) ~d:nodes.(i + 1) ~g:nodes.(i)
      ~s:Netlist.ground ~b:Netlist.ground Process.Nmos ~w:2e-6 ~l:5e-7 ();
    let on = i mod 2 = 0 in
    Netlist.switch nl (Printf.sprintf "s%d" i) nodes.(i) Netlist.ground
      ~r_on:50.0 ~r_off:1e9 ~closed_at:(fun _ -> on)
  done;
  Netlist.vsource nl "vin" nodes.(0) Netlist.ground
    (Stimulus.Sine { offset = 0.0; amplitude = 1.0; freq = 1e6; phase = 0.0 });
  Alcotest.(check bool) "at least 1000 devices" true
    (List.length (Netlist.devices nl) >= 1000);
  let deck = Spice.emit nl in
  let reparsed, _ = parse_exn deck in
  Alcotest.(check string) "emit o parse o emit = emit" deck (Spice.emit reparsed)

(* a parse error never escapes as an exception *)
let error_totality_prop =
  QCheck.Test.make ~count:300 ~name:"parse is total on arbitrary text"
    QCheck.(string_gen Gen.printable)
    (fun text ->
      match Spice.parse text with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* per-process isolation: fingerprints and store keys *)

let test_cross_process_fingerprints () =
  let c018 =
    match Spice.load_process_file (share "c018.sp") with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let spec25 = Spec.make ~k:10 ~fs:40e6 () in
  let spec18 = Spec.make ~process:c018 ~k:10 ~fs:40e6 () in
  let job = { Spec.m = 3; input_bits = 8 } in
  Alcotest.(check bool)
    "same (k, fs, job) on different processes must not share a synthesis"
    false
    (Spec.stage_fingerprint spec25 job = Spec.stage_fingerprint spec18 job);
  Alcotest.(check string) "default-process spec fingerprint is stable"
    (Spec.stage_fingerprint spec25 job)
    (Spec.stage_fingerprint (Spec.make ~process:Process.c025 ~k:10 ~fs:40e6 ()) job)

(* a card swap is a real input: the same equation-mode optimize under
   the 0.18 um card answers different payload bytes than under the
   built-in card *)
let test_process_swap_changes_payload () =
  let c018 =
    match Spice.load_process_file (share "c018.sp") with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let payload spec =
    Adc_json.Json.to_string
      (Codec.optimize_payload (Adc_pipeline.Optimize.run ~mode:`Equation spec))
  in
  Alcotest.(check bool) "payloads differ" true
    (payload (Spec.make ~k:12 ~fs:40e6 ())
    <> payload (Spec.make ~process:c018 ~k:12 ~fs:40e6 ()))

let test_store_key_isolation () =
  let base ?process () =
    Codec.key_optimize ?process ~k:12 ~fs_mhz:40.0 ~mode:`Equation ~seed:11
      ~attempts:3 ()
  in
  let k_default = base () in
  let digest =
    match Spice.load_process_file (share "c018.sp") with
    | Ok p -> Spice.process_digest p
    | Error msg -> Alcotest.fail msg
  in
  let k_c018 = base ~process:digest () in
  Alcotest.(check bool) "foreign card namespaces the key" true (k_default <> k_c018);
  Alcotest.(check string) "same card, same key" k_c018 (base ~process:digest ());
  (* absent process leaves the pre-flag key bytes untouched *)
  Alcotest.(check bool) "default key carries no process suffix" false
    (contains k_default "process=")

let () =
  Alcotest.run "spice"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest roundtrip_prop;
          Alcotest.test_case "normalize then fixpoint" `Quick
            test_normalize_then_fixpoint;
          Alcotest.test_case "letter-prefix renaming" `Quick
            test_letter_prefix_normalization;
          Alcotest.test_case "1000-device deck fixpoint" `Quick
            test_large_deck_fixpoint;
        ] );
      ( "process-cards",
        [
          Alcotest.test_case "c025.sp reproduces the built-in card" `Quick
            test_c025_card_is_builtin;
          Alcotest.test_case "c018.sp" `Quick test_c018_card;
          Alcotest.test_case "c060.sp" `Quick test_c060_card;
          Alcotest.test_case "digests distinct" `Quick test_card_digests_distinct;
        ] );
      ( "errors",
        [
          Alcotest.test_case "typed line-numbered errors" `Quick test_error_table;
          QCheck_alcotest.to_alcotest error_totality_prop;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "stage fingerprints differ per process" `Quick
            test_cross_process_fingerprints;
          Alcotest.test_case "process swap changes the optimize payload" `Quick
            test_process_swap_changes_payload;
          Alcotest.test_case "store keys namespace per process" `Quick
            test_store_key_isolation;
        ] );
    ]
