module Synthesizer = Adc_synth.Synthesizer

type t = string

let compare = String.compare
let equal = String.equal
let to_string k = k
let digest k = Digest.to_hex (Digest.string k)

let budget_part = function
  | None -> "default"
  | Some b ->
    Printf.sprintf "sa:%d,pe:%d,sf:%.17g" b.Synthesizer.sa_iterations
      b.Synthesizer.pattern_evals b.Synthesizer.space_factor

let make spec ~job ~mode_name ~seed ~attempts ~budget ~donors =
  let donor_part =
    match donors with
    | [] -> "cold"
    | ds -> String.concat "," (List.map digest ds)
  in
  Printf.sprintf "%s|mode=%s|seed=%d|attempts=%d|budget=%s|donors=%s"
    (Spec.stage_fingerprint spec job)
    mode_name seed attempts (budget_part budget) donor_part
