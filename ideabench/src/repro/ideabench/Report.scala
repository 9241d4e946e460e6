package repro.ideabench

/** Order statistics over measured samples. */
object Stats {
  /** Linear interpolation between closest ranks (numpy's default); NaN
    * without samples.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = (s.size - 1) * p / 100.0
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def ms(ns: Long): Double = ns / 1e6
}

/** A named metric value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Minimal JSON rendering for the benchmark's output lines. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else d.toString

  /** Renders Scala values: Map (object), Iterable (array), String, numbers, Boolean. */
  def render(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double => num(d)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Metric => render(Map("value" -> m.value, "unit" -> m.unit))
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  /** A JSON object with keys in the given order. */
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, x) => s"${str(k)}: ${render(x)}" }.mkString("{", ", ", "}")

  def metrics(ms: Seq[Metric]): String =
    ms.map(m => s"${str(m.name)}: ${render(m)}").mkString("{", ", ", "}")
}
